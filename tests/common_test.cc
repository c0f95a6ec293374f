// Unit tests for the common utilities: Status/Result, Rng, string helpers,
// thread pool, cancellation token.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <thread>

#include "gvex/common/cancellation.h"
#include "gvex/common/result.h"
#include "gvex/common/rng.h"
#include "gvex/common/status.h"
#include "gvex/common/string_util.h"
#include "gvex/common/thread_pool.h"

namespace gvex {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad k");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_EQ(st.message(), "bad k");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, CopyPreservesState) {
  Status st = Status::Infeasible("no view");
  Status copy = st;
  EXPECT_TRUE(copy.IsInfeasible());
  EXPECT_EQ(copy.message(), "no view");
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::OutOfRange("negative");
  return Status::OK();
}

Status Chain(int x) {
  GVEX_RETURN_NOT_OK(FailIfNegative(x));
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkPropagates) {
  EXPECT_TRUE(Chain(1).ok());
  EXPECT_EQ(Chain(-1).code(), StatusCode::kOutOfRange);
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x * 2;
}

Result<int> UseAssignOrReturn(int x) {
  GVEX_ASSIGN_OR_RETURN(int doubled, ParsePositive(x));
  return doubled + 1;
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> ok = ParsePositive(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);

  Result<int> err = ParsePositive(-1);
  EXPECT_FALSE(err.ok());
  EXPECT_TRUE(err.status().IsInvalidArgument());
  EXPECT_EQ(err.ValueOr(-7), -7);
}

TEST(ResultTest, AssignOrReturnMacro) {
  Result<int> r = UseAssignOrReturn(10);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 21);
  EXPECT_FALSE(UseAssignOrReturn(0).ok());
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
    int64_t v = rng.NextInt(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(17);
  auto sample = rng.SampleWithoutReplacement(50, 20);
  EXPECT_EQ(sample.size(), 20u);
  std::set<size_t> uniq(sample.begin(), sample.end());
  EXPECT_EQ(uniq.size(), 20u);
  for (size_t v : sample) EXPECT_LT(v, 50u);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(StringUtilTest, SplitAndJoin) {
  auto parts = SplitString("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
  EXPECT_EQ(JoinStrings({"x", "y"}, "-"), "x-y");
  EXPECT_EQ(JoinStrings({}, "-"), "");
}

TEST(StringUtilTest, Format) {
  EXPECT_EQ(StrFormat("%d/%s", 3, "four"), "3/four");
  EXPECT_EQ(StrFormat("%.2f", 1.239), "1.24");
}

TEST(StringUtilTest, StripAndPrefix) {
  EXPECT_EQ(StripWhitespace("  hi \n"), "hi");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_TRUE(StartsWith("gvexdb-v1", "gvex"));
  EXPECT_FALSE(StartsWith("gv", "gvex"));
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(257, [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, SingleThreadDegradesToSerial) {
  ThreadPool pool(1);
  std::vector<int> order;
  pool.ParallelFor(5, [&](size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, ParallelForGrainCoversRangeOnce) {
  ThreadPool pool(3);
  // A grain that doesn't divide the range evenly must still visit every
  // index exactly once (the last chunk is short).
  std::vector<std::atomic<int>> hits(101);
  pool.ParallelFor(
      101, [&](size_t i) { hits[i].fetch_add(1); },
      /*cancel=*/nullptr, /*grain=*/7);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  // Grain larger than the range degenerates to one serial chunk.
  std::vector<int> order;
  pool.ParallelFor(
      4, [&](size_t i) { order.push_back(static_cast<int>(i)); },
      /*cancel=*/nullptr, /*grain=*/64);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // Outer iterations saturate every worker, then each issues an inner
  // ParallelFor on the same pool. Inner loops run inline on their outer
  // chunk's thread, so nothing ever waits on a busy pool.
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.ParallelFor(8, [&](size_t) {
    pool.ParallelFor(16, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ThreadPoolTest, NestedParallelForRunsOnTheCallingThread) {
  // An outer loop on a 4-worker pool issues inner loops on Shared(): every
  // inner index runs on the thread that runs its outer chunk.
  ThreadPool pool(4);
  constexpr size_t kOuter = 16, kInner = 64;
  std::vector<std::thread::id> outer_thread(kOuter);
  std::vector<std::thread::id> inner_thread(kOuter * kInner);
  pool.ParallelFor(kOuter, [&](size_t o) {
    outer_thread[o] = std::this_thread::get_id();
    ThreadPool::Shared().ParallelFor(kInner, [&](size_t i) {
      inner_thread[o * kInner + i] = std::this_thread::get_id();
    });
  });
  for (size_t o = 0; o < kOuter; ++o) {
    for (size_t i = 0; i < kInner; ++i) {
      ASSERT_EQ(inner_thread[o * kInner + i], outer_thread[o])
          << "outer " << o << ", inner " << i;
    }
  }
}

// Two chunks on a two-worker pool, one on the caller and one on a helper:
// each chunk announces itself and waits for the other before it goes on,
// so neither thread can claim both chunks.
struct ChunkHandshake {
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> caller_in{false};
  std::atomic<bool> helper_in{false};

  /// Announce this chunk, wait for the other; true on the caller.
  bool Meet() {
    const bool on_caller = std::this_thread::get_id() == caller;
    (on_caller ? caller_in : helper_in).store(true);
    while (!(on_caller ? helper_in : caller_in).load()) {
      std::this_thread::yield();
    }
    return on_caller;
  }
};

TEST(ThreadPoolTest, ExceptionOnAHelperReachesTheCaller) {
  // The helper's chunk throws; ParallelFor rethrows it on the caller.
  ThreadPool pool(2);
  ChunkHandshake meet;
  EXPECT_THROW(pool.ParallelFor(2,
                                [&](size_t) {
                                  if (meet.Meet()) return;
                                  throw std::runtime_error("helper failed");
                                }),
               std::runtime_error);
}

TEST(ThreadPoolTest, ExceptionOnTheCallerWaitsForHelperChunks) {
  // The caller's chunk throws while the helper's chunk is still running.
  // The exception must not unwind the caller's frame before that chunk is
  // done.
  ThreadPool pool(2);
  ChunkHandshake meet;
  std::atomic<bool> helper_done{false};
  try {
    pool.ParallelFor(2, [&](size_t) {
      if (meet.Meet()) throw std::runtime_error("caller failed");
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      helper_done.store(true);
    });
    ADD_FAILURE() << "ParallelFor did not rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "caller failed");
    EXPECT_TRUE(helper_done.load());
  }
}

TEST(ThreadPoolTest, CancelledLoopStopsClaimingChunks) {
  // Index 0 cancels the token. Every other index that started before the
  // cancel finishes only after it, so each thread (4 helpers plus the
  // caller) runs at most one index before the cancel, and none after.
  ThreadPool pool(4);
  CancellationToken cancel;
  std::atomic<size_t> ran{0};
  pool.ParallelFor(
      1000,
      [&](size_t i) {
        ran.fetch_add(1);
        if (i == 0) {
          cancel.RequestCancel(Status::Internal("stop"));
          return;
        }
        while (!cancel.cancelled()) std::this_thread::yield();
      },
      &cancel);
  EXPECT_GE(ran.load(), 1u);
  EXPECT_LE(ran.load(), 5u);
  EXPECT_TRUE(cancel.cancelled());

  // A token cancelled up front runs nothing, serially or fanned out.
  ran = 0;
  ThreadPool(1).ParallelFor(10, [&](size_t) { ran.fetch_add(1); }, &cancel);
  pool.ParallelFor(10, [&](size_t) { ran.fetch_add(1); }, &cancel);
  EXPECT_EQ(ran.load(), 0u);
}

TEST(ThreadPoolTest, SharedPoolIsUsableAndStable) {
  ThreadPool& a = ThreadPool::Shared();
  ThreadPool& b = ThreadPool::Shared();
  EXPECT_EQ(&a, &b);
  std::atomic<int> total{0};
  a.ParallelFor(32, [&](size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 32);
}

TEST(CancellationTokenTest, DeadlineSemantics) {
  CancellationToken none;
  EXPECT_FALSE(none.cancelled());
  EXPECT_TRUE(none.cause().ok());

  // A passed deadline reads as cancelled with a kTimeout cause, and stays
  // cancelled: the cause is latched, not recomputed.
  CancellationToken passed;
  passed.ExpireAfter(0.0);
  EXPECT_TRUE(passed.cancelled());
  EXPECT_TRUE(passed.cause().IsTimeout());
  passed.RequestCancel(Status::Internal("too late"));
  EXPECT_TRUE(passed.cancelled());
  EXPECT_TRUE(passed.cause().IsTimeout());

  // An explicit cancel made before the deadline keeps its own cause.
  CancellationToken early;
  early.ExpireAfter(0.1);
  early.RequestCancel(Status::IoError("disk gone"));
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_TRUE(early.cancelled());
  EXPECT_TRUE(early.cause().IsIoError());
}

}  // namespace
}  // namespace gvex
