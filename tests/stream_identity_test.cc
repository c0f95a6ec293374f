// StreamGVEX's output pinned byte for byte: the view-set fingerprint and the
// solver's counters on small seeded MUT, ENZ and RED databases, through both
// entry points (Explain, and IngestGraph + ResidentView per label). The pins
// were taken from the solver that rebuilt its influence accumulator on every
// removal and ran its C2 probes serially; the invertible accumulator and the
// fanned-out probes must change neither a view byte nor a decision count.
//
// SolverIdentityTest pins both solvers the same way on the same databases
// at b_l = 0 and b_l = 4: ApproxGVEX through Explain, and StreamGVEX
// through Explain on nodes shuffled by order seed 7. These pins were taken
// before the solvers' shared steps (saliency, coverage bound, C2 margin,
// pattern cover table) were given one definition each.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "gvex/cluster/bundle.h"
#include "gvex/datasets/datasets.h"
#include "gvex/explain/approx_gvex.h"
#include "gvex/explain/stream_gvex.h"
#include "gvex/gnn/trainer.h"

namespace gvex {
namespace {

struct Pin {
  const char* dataset;
  double scale;
  uint64_t seed;
  size_t upper;  // u_l
  const char* fingerprint;
  StreamGvexStats stats;
};

// nodes_processed, accepts, swaps, skips, everify_calls, graphs_explained,
// graphs_infeasible.
const Pin kPins[] = {
    {"MUT", 0.15, 11, 8, "fefb5585a590a0df", {508, 240, 291, 5, 664, 23, 7}},
    {"ENZ", 0.1, 12, 10, "ec0408cbe4aaa20c", {562, 180, 411, 14, 1283, 14, 4}},
    {"RED", 0.15, 13, 10, "5248c98097ee7505", {899, 180, 468, 265, 705, 13, 5}},
};

struct Trained {
  GraphDatabase db;
  GcnClassifier model;
  std::vector<ClassLabel> assigned;
  std::vector<ClassLabel> labels;  // labels with at least one graph
};

Trained Train(const Pin& pin) {
  Trained t;
  t.db = datasets::MakeByName(pin.dataset, pin.scale, pin.seed).ValueOrDie();
  GcnConfig mc;
  mc.input_dim = t.db.feature_dim();
  mc.hidden_dim = 16;
  mc.num_layers = 3;
  mc.num_classes = t.db.num_classes();
  t.model = GcnClassifier::Create(mc).ValueOrDie();
  DataSplit split = SplitDatabase(t.db, 0.8, 0.1, 42);
  TrainerConfig tc;
  tc.epochs = 40;
  tc.adam.learning_rate = 5e-3f;
  Trainer(tc).Fit(&t.model, t.db, split);
  t.assigned = AssignLabels(t.model, t.db);
  for (size_t l = 0; l < t.db.num_classes(); ++l) {
    const ClassLabel label = static_cast<ClassLabel>(l);
    if (!GraphDatabase::LabelGroup(t.assigned, label).empty()) {
      t.labels.push_back(label);
    }
  }
  return t;
}

Configuration StreamConfig(const Pin& pin, size_t lower = 0) {
  Configuration config;
  config.theta = 0.08f;
  config.radius = 0.25f;
  config.gamma = 0.5f;
  config.default_coverage = {lower, pin.upper};
  return config;
}

std::string Fingerprint(const ExplanationViewSet& set) {
  cluster::ViewBundle bundle;
  bundle.views = set;
  return cluster::BundleFingerprint(bundle).ValueOrDie();
}

void AddStats(const StreamGvexStats& s, StreamGvexStats* total) {
  total->nodes_processed += s.nodes_processed;
  total->accepts += s.accepts;
  total->swaps += s.swaps;
  total->skips += s.skips;
  total->everify_calls += s.everify_calls;
  total->graphs_explained += s.graphs_explained;
  total->graphs_infeasible += s.graphs_infeasible;
}

std::string Describe(const std::string& fingerprint,
                     const StreamGvexStats& s) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "\"%s\", {%zu, %zu, %zu, %zu, %zu, %zu, %zu}",
                fingerprint.c_str(), s.nodes_processed, s.accepts, s.swaps,
                s.skips, s.everify_calls, s.graphs_explained,
                s.graphs_infeasible);
  return buf;
}

void ExpectPinned(const Pin& pin, const std::string& fingerprint,
                  const StreamGvexStats& s) {
  SCOPED_TRACE(std::string(pin.dataset) + ": got " + Describe(fingerprint, s));
  EXPECT_EQ(fingerprint, pin.fingerprint);
  EXPECT_EQ(s.nodes_processed, pin.stats.nodes_processed);
  EXPECT_EQ(s.accepts, pin.stats.accepts);
  EXPECT_EQ(s.swaps, pin.stats.swaps);
  EXPECT_EQ(s.skips, pin.stats.skips);
  EXPECT_EQ(s.everify_calls, pin.stats.everify_calls);
  EXPECT_EQ(s.graphs_explained, pin.stats.graphs_explained);
  EXPECT_EQ(s.graphs_infeasible, pin.stats.graphs_infeasible);
}

TEST(StreamIdentityTest, ExplainMatchesPinnedViewsAndStats) {
  for (const Pin& pin : kPins) {
    const Trained t = Train(pin);
    StreamGvex solver(&t.model, StreamConfig(pin));
    auto set = solver.Explain(t.db, t.assigned, t.labels);
    ASSERT_TRUE(set.ok()) << pin.dataset << ": " << set.status().ToString();
    ExpectPinned(pin, Fingerprint(*set), solver.stats());
  }
}

TEST(StreamIdentityTest, IngestMatchesPinnedViewsAndStats) {
  for (const Pin& pin : kPins) {
    const Trained t = Train(pin);
    ExplanationViewSet set;
    StreamGvexStats total;
    for (ClassLabel l : t.labels) {
      StreamGvex solver(&t.model, StreamConfig(pin));
      for (size_t gi : GraphDatabase::LabelGroup(t.assigned, l)) {
        Status st = solver.IngestGraph(t.db.graph(gi), gi, l);
        ASSERT_TRUE(st.ok() || st.IsInfeasible())
            << pin.dataset << ": " << st.ToString();
      }
      auto view = solver.ResidentView();
      ASSERT_TRUE(view.ok()) << pin.dataset << ": "
                             << view.status().ToString();
      set.views.push_back(std::move(*view));
      AddStats(solver.stats(), &total);
    }
    ExpectPinned(pin, Fingerprint(set), total);
  }
}

// One solver's output on the kPins database of `dataset` (its scale, seed
// and u_l) at coverage lower bound b_l = `lower`.
struct BoundPin {
  const char* dataset;
  size_t lower;
  const char* fingerprint;
  std::vector<size_t> counters;
};

// graphs_attempted, graphs_explained, graphs_infeasible, graphs_resumed,
// everify_calls, greedy_rounds.
const BoundPin kApproxPins[] = {
    {"MUT", 0, "514ec5b3912444ad", {30, 29, 1, 0, 2642, 193}},
    {"MUT", 4, "8d2c3a85f63038a0", {30, 29, 1, 0, 2761, 206}},
    {"ENZ", 0, "6414c15676d59bee", {18, 17, 1, 0, 2242, 139}},
    {"ENZ", 4, "9ca51eaae5d145cd", {18, 17, 1, 0, 2578, 160}},
    {"RED", 0, "220d1892284cb378", {18, 13, 5, 0, 2354, 155}},
    {"RED", 4, "aaea89bf8b99a59c", {18, 13, 5, 0, 2642, 173}},
};

// As kPins' counters.
const BoundPin kShuffledStreamPins[] = {
    {"MUT", 0, "c2470e062ebe4933", {508, 240, 309, 3, 734, 26, 4}},
    {"MUT", 4, "c2470e062ebe4933", {508, 240, 309, 3, 722, 26, 4}},
    {"ENZ", 0, "891543554b2504c3", {562, 180, 329, 97, 1387, 12, 6}},
    {"ENZ", 4, "891543554b2504c3", {562, 180, 329, 97, 1365, 12, 6}},
    {"RED", 0, "efdfb9071898dd62", {899, 180, 356, 379, 823, 14, 4}},
    {"RED", 4, "8d7475946368ff93", {899, 180, 356, 379, 803, 14, 4}},
};

std::vector<size_t> Counters(const ApproxGvexStats& s) {
  return {s.graphs_attempted, s.graphs_explained, s.graphs_infeasible,
          s.graphs_resumed,   s.everify_calls,    s.greedy_rounds};
}

std::vector<size_t> Counters(const StreamGvexStats& s) {
  return {s.nodes_processed,  s.accepts,       s.swaps,
          s.skips,            s.everify_calls, s.graphs_explained,
          s.graphs_infeasible};
}

// Trains each kPins database once, runs `solve` on it at every bound its
// pins name, and checks the fingerprint and counters `solve` reports.
template <size_t N, typename Solve>
void ExpectBoundPins(const BoundPin (&pins)[N], Solve solve) {
  for (const Pin& pin : kPins) {
    const Trained t = Train(pin);
    for (const BoundPin& want : pins) {
      if (std::string(want.dataset) != pin.dataset) continue;
      std::string fingerprint;
      std::vector<size_t> counters;
      solve(t, StreamConfig(pin, want.lower), &fingerprint, &counters);
      SCOPED_TRACE(std::string(pin.dataset) +
                   " b_l=" + std::to_string(want.lower));
      EXPECT_EQ(fingerprint, want.fingerprint);
      EXPECT_EQ(counters, want.counters);
    }
  }
}

TEST(SolverIdentityTest, ApproxExplainMatchesPinnedViewsAndStats) {
  ExpectBoundPins(kApproxPins, [](const Trained& t, const Configuration& config,
                                  std::string* fingerprint,
                                  std::vector<size_t>* counters) {
    ApproxGvex solver(&t.model, config);
    auto set = solver.Explain(t.db, t.assigned, t.labels);
    ASSERT_TRUE(set.ok()) << set.status().ToString();
    *fingerprint = Fingerprint(*set);
    *counters = Counters(solver.stats());
  });
}

TEST(SolverIdentityTest, ShuffledStreamExplainMatchesPinnedViewsAndStats) {
  ExpectBoundPins(kShuffledStreamPins, [](const Trained& t,
                                          const Configuration& config,
                                          std::string* fingerprint,
                                          std::vector<size_t>* counters) {
    StreamGvex solver(&t.model, config);
    auto set = solver.Explain(t.db, t.assigned, t.labels, /*cancel=*/nullptr,
                              /*order_seed=*/7);
    ASSERT_TRUE(set.ok()) << set.status().ToString();
    *fingerprint = Fingerprint(*set);
    *counters = Counters(solver.stats());
  });
}

}  // namespace
}  // namespace gvex
