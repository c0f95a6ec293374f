// The offline half every workload shares: a seeded ENZ database, a GCN
// trained on it, and the explanation views ParallelApproxExplain builds
// for all six labels. Also the run options and the workload entry points.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "gvex/common/result.h"
#include "gvex/explain/config.h"
#include "gvex/explain/parallel.h"
#include "gvex/explain/view.h"
#include "gvex/gnn/model.h"
#include "gvex/graph/graph_db.h"
#include "stats.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for sockets, the ingest journal and trace files.
  std::string work_dir = ".bench_build/run";
};

/// Set-up runs this many times per run; setup_s is the median.
inline constexpr int kSetupReps = 3;

/// Offsets added to the workload seed for the held-out graph streams, so
/// they never coincide with the served database.
inline constexpr uint64_t kClassifyStream = 1000003;
inline constexpr uint64_t kIngestStream = 2000003;

struct Fixture {
  uint64_t seed = 0;
  gvex::GraphDatabase db;
  std::shared_ptr<const gvex::GcnClassifier> model;
  std::vector<gvex::ClassLabel> assigned;
  std::vector<gvex::ClassLabel> labels;
  gvex::Configuration config;
  size_t threads = 1;
  /// Views of the first (cold) build, and their bundle fingerprint.
  gvex::ExplanationViewSet views;
  std::string fingerprint;
};

/// Generate the database, train the model, and run the first view build.
gvex::Result<Fixture> MakeFixture(uint64_t seed);

/// One offline job: clear the MatchCache (a job starts cold), then
/// ParallelApproxExplain over every label on `fixture.threads` threads.
gvex::Result<gvex::ExplanationViewSet> BuildViews(
    const Fixture& fixture, gvex::ParallelExplainReport* report = nullptr);

/// Content fingerprint of (views, model) as a gvexbundle would stamp it.
gvex::Result<std::string> Fingerprint(
    const gvex::ExplanationViewSet& views,
    const std::shared_ptr<const gvex::GcnClassifier>& model);

/// Held-out ENZ graphs from another seed stream, with the labels the
/// model assigns them.
struct HeldOut {
  gvex::GraphDatabase db;
  std::vector<gvex::ClassLabel> predicted;
};
gvex::Result<HeldOut> MakeHeldOut(const Fixture& fixture, uint64_t stream,
                                  double scale);

/// Checks a built view set: every subgraph passes EVerify's C2 and is
/// fully covered by its view's patterns. Returns the number of subgraphs
/// that fail; `why` receives the first failure.
uint64_t CheckViews(const Fixture& fixture, const gvex::ExplanationViewSet& set,
                    std::string* why);

/// `g` with its nodes renumbered by a seeded permutation: the same graph
/// up to isomorphism, with a new content fingerprint.
gvex::Graph Relabel(const gvex::Graph& g, uint64_t seed);

/// Runs `make` (returning Result<std::unique_ptr<T>>) kSetupReps times and
/// keeps the last set-up. Reports the median time as setup_s and the peak
/// RSS so far as peak_rss_mb: the loaded system. The timed window is left
/// out of peak_rss_mb on purpose: on serve_read it adds MatchCache entries
/// in proportion to throughput, so a faster server would read as a memory
/// regression. Set-ups of one seed must agree on `key` (what they built).
/// Returns null, with the run failed, when a set-up fails.
template <typename T, typename Make, typename Key>
std::unique_ptr<T> RepeatSetup(const Make& make, const Key& key,
                               RunResult* result) {
  std::vector<double> seconds;
  std::unique_ptr<T> last;
  std::optional<std::decay_t<decltype(key(std::declval<const T&>()))>> first;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    last.reset();  // stop the previous set-up's threads first
    const double t0 = NowSeconds();
    gvex::Result<std::unique_ptr<T>> made = make();
    seconds.push_back(NowSeconds() - t0);
    if (!made.ok()) {
      result->Attempt();
      result->Fail(1, "set-up: " + made.status().ToString());
      return nullptr;
    }
    last = std::move(*made);
    if (!first.has_value()) {
      first = key(*last);
    } else if (key(*last) != *first) {
      result->Fail(1, "two set-ups of the same seed built different outputs");
    }
  }
  result->Metric("setup_s", Median(seconds), "s");
  result->Metric("peak_rss_mb", PeakRssMb(), "MB");
  return last;
}

// Workload entry points. Each fills `result` and returns after stopping
// every thread it started.
void RunExplainEnz(const Options& options, RunResult* result);
void RunServeRead(const Options& options, RunResult* result);
void RunServeIngest(const Options& options, RunResult* result);

}  // namespace perfbench
