#include "gvex/common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdlib>
#include <exception>
#include <memory>

#include "gvex/common/failpoint.h"
#include "gvex/obs/obs.h"

namespace gvex {

namespace {

// True while this thread runs a chunk of a loop that fanned out. Every
// ParallelFor it issues then runs inline, so no pool thread waits on a pool.
thread_local bool t_in_fanned_out_chunk = false;

// One fanned-out loop, co-owned by its caller and every helper task. `fn`
// and `cancel` live in the caller's frame: they are read only by a thread
// holding an unfinished chunk, and the caller returns only once every
// chunk has finished. A helper that starts after the last claim therefore
// touches this state alone.
struct Loop {
  const std::function<void(size_t)>* fn = nullptr;
  const CancellationToken* cancel = nullptr;
  size_t n = 0;
  size_t grain = 1;
  size_t chunks = 0;
  std::atomic<size_t> next{0};      // the next chunk to claim
  std::atomic<bool> failed{false};  // a chunk threw: run no more
  std::mutex mu;
  std::condition_variable cv;  // notified when the last chunk finishes
  size_t finished = 0;         // guarded by mu
  std::exception_ptr error;    // the first exception; guarded by mu
};

void RunChunk(const std::function<void(size_t)>& fn, size_t n, size_t grain,
              size_t c) {
  const size_t end = std::min(n, (c + 1) * grain);
  for (size_t i = c * grain; i < end; ++i) fn(i);
}

// Claims chunks until none is left. A claimed chunk runs unless the loop
// has failed or its token is cancelled; either way it counts as finished.
void Drain(Loop& loop) {
  for (;;) {
    const size_t c = loop.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= loop.chunks) return;
    std::exception_ptr error;
    if (!loop.failed.load() &&
        (loop.cancel == nullptr || !loop.cancel->cancelled())) {
      assert(!t_in_fanned_out_chunk);
      t_in_fanned_out_chunk = true;
      try {
        RunChunk(*loop.fn, loop.n, loop.grain, c);
      } catch (...) {
        error = std::current_exception();
        loop.failed.store(true);
      }
      t_in_fanned_out_chunk = false;
    }
    std::lock_guard<std::mutex> lock(loop.mu);
    if (error != nullptr && loop.error == nullptr) loop.error = error;
    if (++loop.finished == loop.chunks) loop.cv.notify_all();
  }
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  num_threads = std::max<size_t>(1, num_threads);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Enqueue(std::function<void()> task) {
  size_t depth;
  {
    std::lock_guard<std::mutex> lock(mu_);
    assert(!shutting_down_);
    tasks_.push(std::move(task));
    depth = tasks_.size();
  }
  GVEX_COUNTER_INC("pool.tasks");
  GVEX_HISTOGRAM_RECORD("pool.queue_depth", depth);
  cv_.notify_one();
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                             const CancellationToken* cancel, size_t grain) {
  if (n == 0) return;
  grain = std::max<size_t>(1, grain);
  const size_t chunks = (n + grain - 1) / grain;
  if (workers_.size() == 1 || chunks == 1 || t_in_fanned_out_chunk) {
    for (size_t c = 0; c < chunks; ++c) {
      if (cancel != nullptr && cancel->cancelled()) return;
      RunChunk(fn, n, grain, c);
    }
    return;
  }
  auto loop = std::make_shared<Loop>();
  loop->fn = &fn;
  loop->cancel = cancel;
  loop->n = n;
  loop->grain = grain;
  loop->chunks = chunks;
  // The caller claims chunks too, so helpers never carry the whole loop
  // and a helper that starts late costs nothing but one claim past the end.
  const size_t helpers = std::min(workers_.size(), chunks - 1);
  for (size_t t = 0; t < helpers; ++t) Enqueue([loop] { Drain(*loop); });
  Drain(*loop);
  std::unique_lock<std::mutex> lock(loop->mu);
  loop->cv.wait(lock, [&] { return loop->finished == loop->chunks; });
  if (loop->error != nullptr) std::rethrow_exception(loop->error);
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool* pool = [] {
    size_t n = 0;
    if (const char* env = std::getenv("GVEX_NUM_THREADS")) {
      const long v = std::strtol(env, nullptr, 10);
      if (v > 0) n = static_cast<size_t>(v);
    }
    if (n == 0) {
      const unsigned hw = std::thread::hardware_concurrency();
      n = hw == 0 ? 1 : hw;
    }
    // Leaky on purpose, like the obs registry: kernels may run during
    // static destruction and must never touch a joined pool.
    return new ThreadPool(n);
  }();
  return *pool;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutting_down_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // shutting down, nothing left to drain
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    // Delay/ordering injection for scheduler-dependent tests ("thread_pool
    // .task" is a void site: error specs count but cannot propagate).
    GVEX_FAILPOINT_NOTIFY("thread_pool.task");
    GVEX_SPAN("pool.task");
    task();
  }
}

}  // namespace gvex
