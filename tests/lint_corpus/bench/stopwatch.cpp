// no-clock scope fixture: benches and tools time themselves, so a
// steady_clock outside src/ is clean. Deliberately no annotation.
#include <chrono>

namespace fix {

double elapsed_s(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace fix
