// steady-clock-only fixture: the former check.sh stage-4b grep ban.
// Spelling system_clock in code fires; comments and string literals do
// not — which is exactly where the old grep misfired. Under src/ the
// same spelling also fires no-clock (see timers.cpp).
#include <chrono>

namespace fix {

long long stamp() {
  const auto wall =
      std::chrono::system_clock::now();  // expect-finding(steady-clock-only) expect-finding(no-clock)
  // A comment mentioning system_clock stays clean.
  const char* label = "system_clock";  // clean: string literal
  (void)label;
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             wall.time_since_epoch())
      .count();
}

}  // namespace fix
