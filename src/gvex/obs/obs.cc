#include "gvex/obs/obs.h"

#include <algorithm>
#include <bit>
#include <chrono>

#include "gvex/common/failpoint.h"
#include "gvex/common/io_util.h"
#include "gvex/obs/json.h"

namespace gvex {
namespace obs {
namespace {

std::atomic<bool> g_enabled{true};
std::atomic<bool> g_trace_enabled{false};

// Cap per-thread span buffers so a forgotten SetTraceEnabled(true) cannot
// grow without bound; drops are counted so they are visible in reports.
constexpr size_t kMaxBufferedEventsPerThread = 1 << 20;

}  // namespace

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }
void SetEnabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool TraceEnabled() {
  return g_trace_enabled.load(std::memory_order_relaxed);
}
void SetTraceEnabled(bool on) {
  g_trace_enabled.store(on, std::memory_order_relaxed);
}

uint64_t NowMicros() {
  static const auto t0 = std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

uint32_t ThreadId() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

// ---- Histogram --------------------------------------------------------------

namespace {

inline size_t BucketOf(uint64_t value) {
  // Bucket 0: value == 0; bucket k: value in [2^(k-1), 2^k).
  size_t b = static_cast<size_t>(std::bit_width(value));
  return std::min(b, Histogram::kBuckets - 1);
}

// Lock-free monotone update of a min/max atomic.
template <typename Cmp>
void AtomicExtreme(std::atomic<uint64_t>* slot, uint64_t value, Cmp better) {
  uint64_t cur = slot->load(std::memory_order_relaxed);
  while (better(value, cur) &&
         !slot->compare_exchange_weak(cur, value,
                                      std::memory_order_relaxed)) {
  }
}

}  // namespace

void Histogram::Record(uint64_t value) {
  Shard& s = shards_[ThreadId() % kShards];
  s.count.fetch_add(1, std::memory_order_relaxed);
  s.sum.fetch_add(value, std::memory_order_relaxed);
  s.buckets[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
  AtomicExtreme(&min_, value, std::less<uint64_t>());
  AtomicExtreme(&max_, value, std::greater<uint64_t>());
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.buckets.assign(kBuckets, 0);
  for (const Shard& s : shards_) {
    snap.count += s.count.load(std::memory_order_relaxed);
    snap.sum += s.sum.load(std::memory_order_relaxed);
    for (size_t b = 0; b < kBuckets; ++b) {
      snap.buckets[b] += s.buckets[b].load(std::memory_order_relaxed);
    }
  }
  uint64_t mn = min_.load(std::memory_order_relaxed);
  snap.min = (snap.count == 0 || mn == UINT64_MAX) ? 0 : mn;
  snap.max = max_.load(std::memory_order_relaxed);
  return snap;
}

void Histogram::Reset() {
  for (Shard& s : shards_) {
    s.count.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
  }
  min_.store(UINT64_MAX, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

uint64_t HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  uint64_t target = static_cast<uint64_t>(q * static_cast<double>(count));
  if (target == 0) target = 1;
  uint64_t seen = 0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    seen += buckets[b];
    if (seen >= target) {
      const uint64_t upper = b == 0 ? 0 : (uint64_t{1} << b) - 1;
      return std::min(std::max(upper, min), max);
    }
  }
  return max;
}

// ---- Registry ---------------------------------------------------------------

Registry& Registry::Global() {
  // Deliberately leaked: macro sites cache references into this object,
  // and worker threads may flush trace buffers during static teardown.
  static Registry* g = new Registry();
  return *g;
}

Counter& Registry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [n, c] : counters_) {
    if (n == name) return *c;
  }
  counters_.emplace_back(name, new Counter());
  return *counters_.back().second;
}

Histogram& Registry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [n, h] : histograms_) {
    if (n == name) return *h;
  }
  histograms_.emplace_back(name, new Histogram());
  return *histograms_.back().second;
}

std::vector<CounterSnapshot> Registry::Counters() const {
  std::vector<CounterSnapshot> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(counters_.size());
    for (const auto& [n, c] : counters_) out.push_back({n, c->Value()});
  }
  std::sort(out.begin(), out.end(),
            [](const CounterSnapshot& a, const CounterSnapshot& b) {
              return a.name < b.name;
            });
  return out;
}

std::vector<HistogramSnapshot> Registry::Histograms() const {
  std::vector<HistogramSnapshot> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(histograms_.size());
    for (const auto& [n, h] : histograms_) {
      HistogramSnapshot snap = h->Snapshot();
      snap.name = n;
      out.push_back(std::move(snap));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const HistogramSnapshot& a, const HistogramSnapshot& b) {
              return a.name < b.name;
            });
  return out;
}

Registry::ThreadTraceBuffer& Registry::LocalTraceBuffer() {
  thread_local ThreadTraceBuffer* buf = [this] {
    auto* b = new ThreadTraceBuffer();
    std::lock_guard<std::mutex> lock(mu_);
    trace_buffers_.push_back(b);
    return b;
  }();
  return *buf;
}

std::vector<TraceEvent> Registry::TraceEvents() const {
  std::vector<ThreadTraceBuffer*> bufs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    bufs = trace_buffers_;
  }
  std::vector<TraceEvent> out;
  for (ThreadTraceBuffer* b : bufs) {
    std::lock_guard<std::mutex> lock(b->mu);
    out.insert(out.end(), b->events.begin(), b->events.end());
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.start_us < b.start_us;
            });
  return out;
}

void Registry::Reset() {
  std::vector<ThreadTraceBuffer*> bufs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [n, c] : counters_) c->Reset();
    for (auto& [n, h] : histograms_) h->Reset();
    bufs = trace_buffers_;
  }
  for (ThreadTraceBuffer* b : bufs) {
    std::lock_guard<std::mutex> lock(b->mu);
    b->events.clear();
  }
}

// ---- SpanTimer --------------------------------------------------------------

SpanTimer::~SpanTimer() {
  if (!active_) return;
  TraceEvent ev{name_, ThreadId(), start_us_, NowMicros() - start_us_};
  Registry::ThreadTraceBuffer& buf =
      Registry::Global().LocalTraceBuffer();
  std::lock_guard<std::mutex> lock(buf.mu);
  if (buf.events.size() >= kMaxBufferedEventsPerThread) {
    GVEX_COUNTER_INC("obs.trace_dropped");
    return;
  }
  buf.events.push_back(ev);
}

// ---- exporters --------------------------------------------------------------

std::string ChromeTraceJson(const std::vector<TraceEvent>& events) {
  JsonWriter w;
  w.BeginObject();
  w.Key("displayTimeUnit");
  w.String("ms");
  w.Key("traceEvents");
  w.BeginArray();
  for (const TraceEvent& ev : events) {
    w.BeginObject();
    w.Key("name");
    w.String(ev.name);
    w.Key("cat");
    w.String("gvex");
    w.Key("ph");
    w.String("X");
    w.Key("pid");
    w.Uint(1);
    w.Key("tid");
    w.Uint(ev.tid);
    w.Key("ts");
    w.Uint(ev.start_us);
    w.Key("dur");
    w.Uint(ev.dur_us);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return std::move(w).Take();
}

Status WriteChromeTrace(const std::string& path) {
  GVEX_FAILPOINT_RETURN("obs.trace_save");
  std::string json = ChromeTraceJson(Registry::Global().TraceEvents());
  return AtomicSave(path, [&](std::ostream* out) -> Status {
    (*out) << json;
    return Status::OK();
  });
}

}  // namespace obs
}  // namespace gvex
