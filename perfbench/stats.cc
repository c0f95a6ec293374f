#include "stats.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "gvex/obs/obs.h"

namespace perfbench {

std::optional<double> NearestRank(std::vector<double> values, double q,
                                  size_t min_beyond) {
  const size_t n = values.size();
  if (n == 0 || q <= 0.0 || q > 1.0) return std::nullopt;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < min_beyond) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  return *NearestRank(std::move(values), 0.5, 0);
}

ObsDelta::ObsDelta() {
  auto& registry = gvex::obs::Registry::Global();
  for (const auto& c : registry.Counters()) counters_[c.name] = c.value;
  for (const auto& h : registry.Histograms()) {
    histograms_[h.name] = {h.sum, h.count};
  }
}

uint64_t ObsDelta::Counter(const std::string& name) const {
  const uint64_t now =
      gvex::obs::Registry::Global().GetCounter(name).Value();
  auto it = counters_.find(name);
  return now - (it == counters_.end() ? 0 : it->second);
}

uint64_t ObsDelta::HistogramSum(const std::string& name) const {
  const auto snap = gvex::obs::Registry::Global().GetHistogram(name).Snapshot();
  auto it = histograms_.find(name);
  return snap.sum - (it == histograms_.end() ? 0 : it->second.first);
}

uint64_t ObsDelta::HistogramCount(const std::string& name) const {
  const auto snap = gvex::obs::Registry::Global().GetHistogram(name).Snapshot();
  auto it = histograms_.find(name);
  return snap.count - (it == histograms_.end() ? 0 : it->second.second);
}

double ObsDelta::HistogramMean(const std::string& name) const {
  const uint64_t count = HistogramCount(name);
  return count == 0 ? 0.0
                    : static_cast<double>(HistogramSum(name)) /
                          static_cast<double>(count);
}

double StealMeter::Lap() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;  // the aggregate "cpu" line comes first
  uint64_t total = 0, steal = 0;
  for (int field = 0; field < 8; ++field) {
    uint64_t v = 0;
    stat >> v;
    total += v;
    if (field == 7) steal = v;
  }
  if (!stat || cpu != "cpu") return 0.0;
  const uint64_t d_total = total - total_, d_steal = steal - steal_;
  total_ = total;
  steal_ = steal;
  return d_total == 0 ? 0.0
                      : static_cast<double>(d_steal) /
                            static_cast<double>(d_total);
}

std::vector<bool> QuietWindows(const std::vector<double>& steal,
                               const char* what) {
  const double median = Median(steal);
  std::vector<bool> keep(steal.size());
  size_t kept = 0;
  double sum = 0.0, max = 0.0;
  for (size_t i = 0; i < steal.size(); ++i) {
    keep[i] = steal[i] <= median;
    kept += keep[i] ? 1 : 0;
    sum += steal[i];
    max = std::max(max, steal[i]);
  }
  std::printf("steal: mean %.1f%%, max %.1f%% of CPU time; %zu of %zu %s "
              "kept\n",
              steal.empty() ? 0.0 : 100.0 * sum / steal.size(), 100.0 * max,
              kept, steal.size(), what);
  return keep;
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

double PeakRssMb() {
  // VmHWM, not getrusage: ru_maxrss survives exec, so a process started by
  // a larger parent (the Python launcher) would report the parent's peak.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void RunResult::Fail(uint64_t n, const std::string& why) {
  failed_ += n;
  std::fprintf(stderr, "FAILED (%llu): %s\n",
               static_cast<unsigned long long>(n), why.c_str());
}

void RunResult::Account(const Tally& tally) {
  Attempt(tally.attempted);
  if (tally.failed > 0) Fail(tally.failed, tally.first_failure);
}

void RunResult::Metric(const std::string& name, double value,
                       const std::string& unit) {
  if (!std::isfinite(value)) {
    Fail(1, "metric " + name + " is not a finite number");
    value = 0.0;
  }
  for (auto& e : metrics_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

void RunResult::PercentileMetric(const std::string& name,
                                 const Samples& samples, double q) {
  std::optional<double> v = samples.Percentile(q);
  std::printf("  %-40s n=%zu\n", name.c_str(), samples.size());
  if (!v.has_value()) {
    Fail(1, name + ": " + std::to_string(samples.size()) +
                " samples cannot support this percentile");
    Metric(name, 0.0, "us");
    return;
  }
  Metric(name, *v, "us");
}

void RunResult::Remove(const std::string& name) {
  std::erase_if(metrics_, [&](const Entry& e) { return e.name == name; });
}

std::string RunResult::Json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ", ";
    std::snprintf(buf, sizeof(buf), "%.17g", metrics_[i].value);
    out += "\"" + metrics_[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

void RunResult::PrintTable() const {
  for (const auto& e : metrics_) {
    std::printf("  %-40s %14.3f %s\n", e.name.c_str(), e.value,
                e.unit.c_str());
  }
  std::printf("  attempted %llu, ok %llu, failed %llu\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(
                  attempted_ > failed_ ? attempted_ - failed_ : 0),
              static_cast<unsigned long long>(failed_));
}

void CacheMetrics(const ObsDelta& delta, RunResult* result) {
  const double hits = static_cast<double>(delta.Counter("match_cache.hits"));
  const double lookups =
      hits + static_cast<double>(delta.Counter("match_cache.misses"));
  result->Metric("matching.cache_lookups", lookups, "count");
  result->Metric("matching.cache_hit_ratio",
                 lookups > 0 ? hits / lookups : 0.0, "ratio");
}

}  // namespace perfbench
