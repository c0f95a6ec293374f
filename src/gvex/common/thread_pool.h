// Fixed-size thread pool used for the per-graph parallel scheme of GVEX
// (appendix A.7): each graph's explanation is independent, so graphs are
// distributed across workers.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "gvex/common/cancellation.h"

namespace gvex {

/// \brief A minimal work-stealing-free pool behind one primitive,
/// ParallelFor. The destructor drains outstanding tasks before joining.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Run `fn(i)` for i in [0, n) across the pool and wait for completion.
  /// With a single-thread pool this degrades to a serial loop (no
  /// thread-hop overhead), which keeps benches honest on 1-core boxes.
  ///
  /// `grain` dispatches contiguous chunks of `grain` indices per claim, so
  /// fine-grained loops (coverage cells, influence sources, GEMM rows)
  /// don't serialize on the claim. The default grain of 1 dispatches per
  /// index.
  ///
  /// When `cancel` is given, no *new* chunk runs once the token is
  /// cancelled (indices already running finish normally) — the first
  /// non-recoverable worker error stops the fan-out instead of letting
  /// the pool run to completion. Indices never run are simply not
  /// invoked; the caller inspects the token's cause().
  ///
  /// The caller claims chunks like any helper, then waits until every
  /// claimed chunk has finished. If `fn` throws, no further chunk runs and
  /// the first exception is rethrown here once every claimed chunk has
  /// finished, whichever thread it was thrown on.
  ///
  /// One fan-out rule: a thread running a chunk of a loop that fanned out
  /// (on any pool) runs every ParallelFor it issues inline, serially, still
  /// checking that loop's token between chunks. No pool thread ever waits
  /// on a pool, so nesting cannot deadlock or oversubscribe the cores. A
  /// loop that does not fan out (one worker, or one chunk) leaves its
  /// thread free to fan out the loops inside it.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                   const CancellationToken* cancel = nullptr,
                   size_t grain = 1);

  /// Process-wide pool shared by the intra-operator parallel kernels
  /// (Psum coverage, PGen enumeration, Jacobian influence, large GEMMs).
  /// Sized by $GVEX_NUM_THREADS when set (>0), else hardware concurrency.
  /// Per-operator fan-out (ParallelApproxExplain) keeps its own pool; the
  /// kernels inside its graphs then run inline (see ParallelFor).
  static ThreadPool& Shared();

 private:
  void Enqueue(std::function<void()> task);
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool shutting_down_ = false;
};

}  // namespace gvex
