#include "gvex/obs/report.h"

#include <cstdio>
#include <cstdlib>
#include <ctime>

#include "gvex/common/failpoint.h"
#include "gvex/common/io_util.h"
#include "gvex/obs/json.h"
#include "gvex/obs/obs.h"

namespace gvex {
namespace obs {

std::string GitRevision() {
#ifdef GVEX_GIT_REV
  return GVEX_GIT_REV;
#else
  return "unknown";
#endif
}

void PerfReport::SetParam(const std::string& key, const std::string& value) {
  params_.emplace_back(key, value);
}

void PerfReport::SetParam(const std::string& key, const char* value) {
  params_.emplace_back(key, std::string(value));
}

void PerfReport::SetParam(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  params_.emplace_back(key, std::string(buf));
}

void PerfReport::SetParam(const std::string& key, int64_t value) {
  params_.emplace_back(key, std::to_string(value));
}

void PerfReport::SetParam(const std::string& key, uint64_t value) {
  params_.emplace_back(key, std::to_string(value));
}

void PerfReport::AddTiming(const std::string& name, double seconds) {
  timings_.emplace_back(name, seconds);
}

std::string PerfReport::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema");
  w.String("gvex-bench-v1");
  w.Key("name");
  w.String(name_);
  w.Key("git_rev");
  w.String(GitRevision());
  w.Key("unix_time");
  w.Int(static_cast<int64_t>(std::time(nullptr)));

  w.Key("params");
  w.BeginObject();
  for (const auto& [k, v] : params_) {
    w.Key(k);
    w.String(v);
  }
  w.EndObject();

  w.Key("timings");
  w.BeginArray();
  for (const auto& [name, seconds] : timings_) {
    w.BeginObject();
    w.Key("name");
    w.String(name);
    w.Key("seconds");
    w.Double(seconds);
    w.EndObject();
  }
  w.EndArray();

  Registry& reg = Registry::Global();
  w.Key("counters");
  w.BeginArray();
  for (const CounterSnapshot& c : reg.Counters()) {
    w.BeginObject();
    w.Key("name");
    w.String(c.name);
    w.Key("value");
    w.Uint(c.value);
    w.EndObject();
  }
  w.EndArray();

  w.Key("histograms");
  w.BeginArray();
  for (const HistogramSnapshot& h : reg.Histograms()) {
    w.BeginObject();
    w.Key("name");
    w.String(h.name);
    w.Key("count");
    w.Uint(h.count);
    w.Key("sum");
    w.Uint(h.sum);
    w.Key("mean");
    w.Double(h.Mean());
    w.Key("min");
    w.Uint(h.min);
    w.Key("max");
    w.Uint(h.max);
    w.Key("p50");
    w.Uint(h.Quantile(0.50));
    w.Key("p90");
    w.Uint(h.Quantile(0.90));
    w.Key("p99");
    w.Uint(h.Quantile(0.99));
    w.EndObject();
  }
  w.EndArray();

  w.EndObject();
  return std::move(w).Take();
}

Status PerfReport::WriteJson(const std::string& path) const {
  GVEX_FAILPOINT_RETURN("obs.report_save");
  std::string json = ToJson();
  return AtomicSave(path, [&](TextWriter* out) -> Status {
    *out << json << "\n";
    return Status::OK();
  });
}

std::string BenchOutputDir() {
  const char* dir = std::getenv("GVEX_BENCH_DIR");
  if (dir != nullptr && dir[0] != '\0') return dir;
  return ".";
}

std::string BenchReportPath(const std::string& name) {
  return BenchOutputDir() + "/BENCH_" + name + ".json";
}

}  // namespace obs
}  // namespace gvex
