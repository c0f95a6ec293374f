#include "gvex/common/cancellation.h"

#include <algorithm>

namespace gvex {

void CancellationToken::ExpireAfter(double seconds) {
  // Clamped to ~31 years so the conversion to clock ticks cannot overflow.
  const std::chrono::duration<double> budget(std::clamp(seconds, 0.0, 1e9));
  deadline_ =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(budget);
}

void CancellationToken::RequestCancel(Status cause) {
  if (cancelled()) return;
  Latch(cause.ok() ? Status::Internal("cancelled") : std::move(cause));
}

Status CancellationToken::cause() const {
  cancelled();  // latch a deadline that passed unobserved
  std::lock_guard<std::mutex> lock(mu_);
  return cause_;
}

bool CancellationToken::DeadlinePassed() const {
  if (Clock::now() < deadline_) return false;
  Latch(Status::Timeout("deadline expired"));
  return true;
}

void CancellationToken::Latch(Status cause) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (cancelled_.load(std::memory_order_relaxed)) return;
  cause_ = std::move(cause);
  cancelled_.store(true, std::memory_order_release);
}

}  // namespace gvex
