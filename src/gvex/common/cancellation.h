// Cooperative cancellation — the one stop signal for bounded work: the
// first non-recoverable failure, an explicit cancel, or a passed deadline
// flips the token, outstanding workers observe it at their next safe point
// and stop, and the original cause is preserved for the aggregated Status
// the caller returns.
#pragma once

#include <atomic>
#include <chrono>
#include <mutex>

#include "gvex/common/status.h"

namespace gvex {

class CancellationToken {
 public:
  CancellationToken() = default;
  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  /// Arm a deadline `seconds` from now (a non-positive budget has already
  /// passed). Once it passes, cancelled() reads true with a kTimeout
  /// cause. Call before the token is shared with other threads.
  void ExpireAfter(double seconds);

  /// Request cancellation. The first cause wins — a deadline that has
  /// already passed included; later calls are no-ops. Safe to call from
  /// any thread.
  void RequestCancel(Status cause);

  /// True once cancelled or past the deadline. Reads the clock only when a
  /// deadline is armed.
  bool cancelled() const {
    if (cancelled_.load(std::memory_order_acquire)) return true;
    return deadline_ != Clock::time_point::max() && DeadlinePassed();
  }

  /// The Status that triggered cancellation (OK when not cancelled).
  Status cause() const;

 private:
  using Clock = std::chrono::steady_clock;

  /// Latches kTimeout once the deadline has passed.
  bool DeadlinePassed() const;
  /// Records `cause` unless a cause is already latched.
  void Latch(Status cause) const;

  Clock::time_point deadline_ = Clock::time_point::max();
  mutable std::atomic<bool> cancelled_{false};
  mutable std::mutex mu_;
  mutable Status cause_;
};

}  // namespace gvex
