// Measurement helpers for the GVEX benchmark: nearest-rank percentiles over
// raw samples, deltas of the program's obs counters and histograms across a
// run, and the result record printed as the benchmark's last output line.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Samples needed beyond a percentile before it is reported: with fewer,
/// the value is the reading of a handful of outliers, not a percentile.
inline constexpr size_t kMinBeyond = 10;

/// Nearest-rank percentile (q in (0, 1]): the sample at 1-based rank
/// ceil(q * n) of the sorted values. Returns nullopt when fewer than
/// `min_beyond` samples lie beyond that rank, or when `values` is empty.
std::optional<double> NearestRank(std::vector<double> values, double q,
                                  size_t min_beyond = kMinBeyond);

/// Median by nearest rank; needs no tail beyond it, only one sample.
double Median(std::vector<double> values);

/// Raw latency samples of one request class, in microseconds.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  const std::vector<double>& values() const { return values_; }
  std::optional<double> Percentile(double q) const {
    return NearestRank(values_, q);
  }

 private:
  std::vector<double> values_;
};

/// Operations attempted and failed by one thread or phase, with the first
/// failure's reason; merged into the RunResult when the phase ends.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_failure;

  void Fail(const std::string& why) {
    if (failed++ == 0) first_failure = why;
  }
  void Merge(const Tally& other) {
    attempted += other.attempted;
    if (other.failed > 0 && failed == 0) first_failure = other.first_failure;
    failed += other.failed;
  }
};

/// Snapshot of every obs counter and histogram sum/count at construction;
/// the accessors return what was added since. Counters are process-wide,
/// so a run boundary is a new ObsDelta, never a registry reset.
class ObsDelta {
 public:
  ObsDelta();
  uint64_t Counter(const std::string& name) const;
  uint64_t HistogramSum(const std::string& name) const;
  uint64_t HistogramCount(const std::string& name) const;
  /// Mean of the samples recorded since the snapshot (0 when none). The
  /// histograms' own quantiles are bucket upper bounds and never used.
  double HistogramMean(const std::string& name) const;

 private:
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, std::pair<uint64_t, uint64_t>> histograms_;
};

/// Share of this machine's CPU time the hypervisor gave to someone else
/// (the "steal" column of /proc/stat) between two calls of Lap().
class StealMeter {
 public:
  StealMeter() { Lap(); }
  double Lap();

 private:
  uint64_t steal_ = 0;
  uint64_t total_ = 0;
};

/// keep[i] is true for the windows whose steal share is at most the median
/// one: the quieter half, or every window when none was stolen. On a shared
/// VM, steal comes in episodes that stall threads for milliseconds; the
/// metrics are taken over the quiet windows so that they measure the
/// program rather than its neighbours. Prints the steal seen and how many
/// `what` (the windows' name) were kept.
std::vector<bool> QuietWindows(const std::vector<double>& steal,
                               const char* what);

/// 64-bit FNV-1a of `bytes`.
uint64_t Fnv1a(const std::string& bytes);

/// Peak resident set size of this process in MiB.
double PeakRssMb();

/// Seconds on the steady clock since an arbitrary epoch.
double NowSeconds();

/// The benchmark's verdict and metrics, printed as one JSON line.
class RunResult {
 public:
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Fail(uint64_t n, const std::string& why);
  void Account(const Tally& tally);
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Percentile metric `name`: prints the sample count beside it and
  /// fails the run when the sample cannot support the percentile.
  void PercentileMetric(const std::string& name, const Samples& samples,
                        double q);

  bool correct() const { return failed_ == 0 && attempted_ > 0; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  void Remove(const std::string& name);

  /// {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
  std::string Json() const;
  /// One human-readable line per metric.
  void PrintTable() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<Entry> metrics_;
};

/// matching.cache_hit_ratio with its base, matching.cache_lookups: the
/// MatchCache traffic since `delta` was taken.
void CacheMetrics(const ObsDelta& delta, RunResult* result);

}  // namespace perfbench
