#include "trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void SpanLog::Add(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> SpanLog::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(spans_);
}

ScopedSpan::ScopedSpan(SpanLog* log, const char* name, uint64_t id)
    : log_(log),
      name_(name),
      id_(id),
      start_us_(gvex::obs::NowMicros()),
      start_ns_(NowNs()) {}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  const uint64_t end_us = gvex::obs::NowMicros();
  log_->Add({name_, id_, gvex::obs::ThreadId(), start_us_,
             end_us - start_us_});
}

double ScopedSpan::ElapsedUs() const {
  return static_cast<double>(NowNs() - start_ns_) / 1000.0;
}

std::map<std::string, double> SelfTimeUs(const std::vector<Span>& spans) {
  std::map<uint32_t, std::vector<const Span*>> by_thread;
  for (const Span& s : spans) by_thread[s.tid].push_back(&s);
  std::map<std::string, double> self;
  for (auto& [tid, list] : by_thread) {
    // Parents sort before the children they enclose: earlier start first,
    // and on a tie the longer span first.
    std::sort(list.begin(), list.end(), [](const Span* a, const Span* b) {
      if (a->start_us != b->start_us) return a->start_us < b->start_us;
      return a->dur_us > b->dur_us;
    });
    std::vector<double> child_us(list.size(), 0.0);
    std::vector<size_t> open;  // indices into `list`, innermost last
    for (size_t i = 0; i < list.size(); ++i) {
      const Span* s = list[i];
      while (!open.empty()) {
        const Span* top = list[open.back()];
        if (top->start_us + top->dur_us > s->start_us) break;
        open.pop_back();
      }
      if (!open.empty()) {
        const Span* parent = list[open.back()];
        // Microsecond rounding can push a child past its parent's end;
        // count only the covered part.
        const uint64_t end = std::min(s->start_us + s->dur_us,
                                      parent->start_us + parent->dur_us);
        child_us[open.back()] += static_cast<double>(end - s->start_us);
      }
      open.push_back(i);
    }
    for (size_t i = 0; i < list.size(); ++i) {
      const double own = static_cast<double>(list[i]->dur_us) - child_us[i];
      self[list[i]->name] += std::max(0.0, own);
    }
  }
  return self;
}

std::vector<Span> ProgramSpans() {
  std::vector<Span> out;
  for (const auto& ev : gvex::obs::Registry::Global().TraceEvents()) {
    out.push_back({ev.name, 0, ev.tid, ev.start_us, ev.dur_us});
  }
  return out;
}

std::string TraceJson(const std::vector<Span>& spans) {
  std::vector<gvex::obs::TraceEvent> program;
  std::string bench;
  for (const Span& s : spans) {
    if (s.id == 0) {
      program.push_back({s.name, s.tid, s.start_us, s.dur_us});
      continue;
    }
    if (!bench.empty()) bench += ",";
    bench += "{\"name\":\"" + std::string(s.name) +
             "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":" +
             std::to_string(s.tid) + ",\"ts\":" + std::to_string(s.start_us) +
             ",\"dur\":" + std::to_string(s.dur_us) +
             ",\"args\":{\"id\":" + std::to_string(s.id) + "}}";
  }
  std::string json = gvex::obs::ChromeTraceJson(program);
  // ChromeTraceJson ends with "]}": splice the benchmark's own events into
  // the same traceEvents array.
  const size_t close = json.rfind(']');
  if (close == std::string::npos || bench.empty()) return json;
  const bool empty_array = json[close - 1] == '[';
  json.insert(close, (empty_array ? "" : ",") + bench);
  return json;
}

gvex::Status WriteTrace(const std::string& path,
                        const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return gvex::Status::IoError("cannot open " + path);
  out << TraceJson(spans);
  out.close();
  if (!out) return gvex::Status::IoError("cannot write " + path);
  return gvex::Status::OK();
}

}  // namespace perfbench
