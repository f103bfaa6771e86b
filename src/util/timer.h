#ifndef GTHINKER_UTIL_TIMER_H_
#define GTHINKER_UTIL_TIMER_H_

#include <chrono>
#include <cstdint>

namespace gthinker {

/// Monotonic stopwatch. Starts running on construction.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  int64_t ElapsedMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                 start_)
        .count();
  }

  int64_t ElapsedNanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start_)
        .count();
  }

  int64_t ElapsedMillis() const { return ElapsedMicros() / 1000; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace gthinker

#endif  // GTHINKER_UTIL_TIMER_H_
