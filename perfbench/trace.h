// Spans recorded by the benchmark around its calls into each layer, merged
// with the spans the program records itself (gvex::obs), for the traced
// run: Chrome trace JSON out, and each layer's self time (its span minus
// the time its child spans cover).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "gvex/common/result.h"
#include "gvex/obs/obs.h"

namespace perfbench {

/// One benchmark-side span. `id` ties the spans of one request (or one
/// replayed graph) together; times share gvex::obs::NowMicros' clock.
struct Span {
  const char* name;  ///< string literal
  uint64_t id;
  uint32_t tid;
  uint64_t start_us;
  uint64_t dur_us;
};

/// Steady-clock nanoseconds, for durations finer than a span's microsecond.
uint64_t NowNs();

/// Thread-safe, in-memory span buffer. Spans are kept until the run ends
/// and written out once.
class SpanLog {
 public:
  void Add(const Span& span);
  std::vector<Span> Take();

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// Times a scope as a span (when `log` is non-null) and reports the
/// duration in microseconds with nanosecond resolution.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t id);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Microseconds since construction.
  double ElapsedUs() const;

 private:
  SpanLog* log_;
  const char* name_;
  uint64_t id_;
  uint64_t start_us_;
  uint64_t start_ns_;
};

/// Per span name, the summed self time in microseconds: each span's
/// duration minus the part covered by its direct children on the same
/// thread. Benchmark and program spans nest in one tree per thread.
std::map<std::string, double> SelfTimeUs(const std::vector<Span>& spans);

/// Program spans (gvex::obs trace events) as Spans with id 0.
std::vector<Span> ProgramSpans();

/// Chrome trace JSON of `spans`; benchmark spans (id != 0) carry their id
/// in "args".
std::string TraceJson(const std::vector<Span>& spans);

gvex::Status WriteTrace(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
