// R7 fixture: a raw wall-clock read outside src/obs.
// Banned everywhere else, so no treat-as directive is needed.
#include <chrono>

long fixture_now_ns() {
  const auto t = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch()).count();
}
