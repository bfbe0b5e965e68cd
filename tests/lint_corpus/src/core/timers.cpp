// no-clock fixture: the library reads no clock, steady or not. Every
// chrono clock spelled in code under src/ fires; comments, string
// literals and look-alike names do not. bench/stopwatch.cpp pins the
// scope: the same spelling outside src/ stays clean.
#include <chrono>

namespace fix {

bool past(std::chrono::steady_clock::time_point t) {  // expect-finding(no-clock)
  return std::chrono::steady_clock::now() >= t;  // expect-finding(no-clock)
}

long long ticks() {
  using Clock = std::chrono::high_resolution_clock;  // expect-finding(no-clock)
  // A comment mentioning steady_clock stays clean.
  const char* label = "steady_clock";  // clean: string literal
  (void)label;
  return Clock::now().time_since_epoch().count();
}

int node_budget_clock = 0;  // clean: a different identifier

}  // namespace fix
