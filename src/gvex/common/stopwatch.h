// Wall-clock timing for benches and latency reports. Time budgets are a
// deadline on CancellationToken (cancellation.h).
#pragma once

#include <chrono>

namespace gvex {

/// \brief Monotonic stopwatch; starts on construction.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace gvex
