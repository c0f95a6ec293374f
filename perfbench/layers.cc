#include "layers.h"

#include <cstdio>
#include <functional>

#include "gvex/obs/obs.h"

namespace perfbench {

namespace {

// Runs one replay section from a clean span buffer and returns its
// benchmark and program spans. The sections turn tracing on themselves,
// after their own set-up.
std::vector<Span> Section(const std::function<void(SpanLog*)>& replay) {
  gvex::obs::Registry::Global().Reset();
  SpanLog log;
  replay(&log);
  gvex::obs::SetTraceEnabled(false);
  std::vector<Span> spans = log.Take();
  std::vector<Span> program = ProgramSpans();
  spans.insert(spans.end(), program.begin(), program.end());
  return spans;
}

}  // namespace

void ReplayLayers(const Fixture& fixture, const Options& options,
                  RunResult* result) {
  std::vector<Span> spans = Section(
      [&](SpanLog* log) { ReplayExplain(fixture, log, result); });
  const auto explain_self = SelfTimeUs(spans);
  for (const char* name : {"approx.explain_graph", "influence.build",
                           "vf2.match", "pgen.generate", "psum.summarize"}) {
    auto it = explain_self.find(name);
    result->Metric(std::string("self_ms.") + name,
                   it == explain_self.end() ? 0.0 : it->second / 1000.0, "ms");
  }
  for (const auto& replay : {ReplayServe, ReplayIngest}) {
    std::vector<Span> more = Section(
        [&](SpanLog* log) { replay(fixture, options, log, result); });
    spans.insert(spans.end(), more.begin(), more.end());
  }

  std::printf("self time by span (ms):\n");
  for (const auto& [name, us] : SelfTimeUs(spans)) {
    std::printf("  %-32s %10.1f\n", name.c_str(), us / 1000.0);
  }
  const std::string path = options.work_dir + "/trace_" + options.workload +
                           "_" + std::to_string(options.seed) + ".json";
  gvex::Status saved = WriteTrace(path, spans);
  std::printf("trace: %s (%zu spans)%s\n", path.c_str(), spans.size(),
              saved.ok() ? "" : " NOT WRITTEN");
  if (!saved.ok()) result->Fail(1, saved.ToString());
}

}  // namespace perfbench
