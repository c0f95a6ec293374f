#include "fixture.h"

#include <algorithm>
#include <thread>

#include "gvex/cluster/bundle.h"
#include "gvex/common/rng.h"
#include "gvex/datasets/datasets.h"
#include "gvex/explain/everify.h"
#include "gvex/gnn/trainer.h"
#include "gvex/matching/match_cache.h"
#include "gvex/matching/vf2.h"

namespace perfbench {

using gvex::ClassLabel;
using gvex::Graph;
using gvex::Result;

namespace {

// The paper's ENZ setting (Table 3: 6 classes, ~31 nodes per graph) with
// the u_l = 15 bound of the Fig. 9 efficiency runs.
constexpr size_t kUpperBound = 15;
constexpr size_t kHidden = 32;
constexpr size_t kLayers = 3;
constexpr size_t kEpochs = 120;

gvex::Configuration MakeConfig() {
  gvex::Configuration config;
  config.theta = 0.08f;
  config.radius = 0.25f;
  config.gamma = 0.5f;
  config.default_coverage = {0, kUpperBound};
  return config;
}

}  // namespace

Result<Fixture> MakeFixture(uint64_t seed) {
  Fixture f;
  f.seed = seed;
  GVEX_ASSIGN_OR_RETURN(f.db, gvex::datasets::MakeByName("ENZ", 1.0, seed));
  // The model is trained on the unseeded database: it is the program under
  // test, the seeded database is its input.
  GVEX_ASSIGN_OR_RETURN(gvex::GraphDatabase train,
                        gvex::datasets::MakeByName("ENZ", 1.0, 0));
  gvex::GcnConfig mc;
  mc.input_dim = train.feature_dim();
  mc.hidden_dim = kHidden;
  mc.num_layers = kLayers;
  mc.num_classes = train.num_classes();
  GVEX_ASSIGN_OR_RETURN(gvex::GcnClassifier model,
                        gvex::GcnClassifier::Create(mc));
  gvex::DataSplit split = gvex::SplitDatabase(train, 0.8, 0.1, 42);
  gvex::TrainerConfig tc;
  tc.epochs = kEpochs;
  tc.patience = kEpochs / 2;
  tc.adam.learning_rate = 5e-3f;
  gvex::Trainer(tc).Fit(&model, train, split);
  f.model = std::make_shared<const gvex::GcnClassifier>(std::move(model));
  f.assigned = gvex::AssignLabels(*f.model, f.db);
  for (size_t l = 0; l < f.db.num_classes(); ++l) {
    f.labels.push_back(static_cast<ClassLabel>(l));
  }
  f.config = MakeConfig();
  f.threads = std::max(1u, std::thread::hardware_concurrency());
  GVEX_ASSIGN_OR_RETURN(f.views, BuildViews(f));
  GVEX_ASSIGN_OR_RETURN(f.fingerprint, Fingerprint(f.views, f.model));
  return f;
}

Result<gvex::ExplanationViewSet> BuildViews(
    const Fixture& fixture, gvex::ParallelExplainReport* report) {
  gvex::MatchCache::Global().Clear();
  gvex::ParallelExplainOptions options;
  options.num_threads = fixture.threads;
  options.report = report;
  return gvex::ParallelApproxExplain(*fixture.model, fixture.db,
                                     fixture.assigned, fixture.labels,
                                     fixture.config, options);
}

Result<std::string> Fingerprint(
    const gvex::ExplanationViewSet& views,
    const std::shared_ptr<const gvex::GcnClassifier>& model) {
  gvex::cluster::ViewBundle bundle;
  bundle.views = views;
  bundle.model = model;
  return gvex::cluster::BundleFingerprint(bundle);
}

Result<HeldOut> MakeHeldOut(const Fixture& fixture, uint64_t stream,
                            double scale) {
  HeldOut out;
  GVEX_ASSIGN_OR_RETURN(
      out.db, gvex::datasets::MakeByName("ENZ", scale, fixture.seed + stream));
  out.predicted = gvex::AssignLabels(*fixture.model, out.db);
  return out;
}

uint64_t CheckViews(const Fixture& fixture, const gvex::ExplanationViewSet& set,
                    std::string* why) {
  gvex::EVerify verifier(fixture.model.get());
  uint64_t failed = 0;
  auto fail = [&](const std::string& msg) {
    if (failed++ == 0) *why = msg;
  };
  if (set.views.size() != fixture.labels.size()) {
    fail("expected one view per label, got " +
         std::to_string(set.views.size()));
  }
  for (const gvex::ExplanationView& view : set.views) {
    for (const gvex::ExplanationSubgraph& s : view.subgraphs) {
      const std::string where = "label " + std::to_string(view.label) +
                                " graph " + std::to_string(s.graph_index);
      if (s.graph_index >= fixture.db.size()) {
        fail(where + ": no such graph");
        continue;
      }
      if (!verifier.Verify(fixture.db.graph(s.graph_index), s.nodes,
                           view.label)
               .IsExplanation()) {
        fail(where + ": subgraph fails EVerify C2");
        continue;
      }
      gvex::CoverageResult cover =
          gvex::ComputeCoverage(view.patterns, s.subgraph, fixture.config.match);
      if (cover.covered_nodes.Count() != s.subgraph.num_nodes()) {
        fail(where + ": patterns leave nodes uncovered");
      }
    }
  }
  return failed;
}

Graph Relabel(const Graph& g, uint64_t seed) {
  const size_t n = g.num_nodes();
  std::vector<gvex::NodeId> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<gvex::NodeId>(i);
  gvex::Rng rng(seed);
  rng.Shuffle(&order);
  std::vector<gvex::NodeId> pos(n);
  for (size_t i = 0; i < n; ++i) pos[order[i]] = static_cast<gvex::NodeId>(i);
  Graph out(g.directed());
  for (size_t i = 0; i < n; ++i) out.AddNode(g.node_type(order[i]));
  for (size_t i = 0; i < n; ++i) {
    const gvex::NodeId v = order[i];
    for (const gvex::Neighbor& nb : g.neighbors(v)) {
      // Undirected adjacency lists hold each edge twice; add it once.
      if (!g.directed() && pos[nb.node] < i) continue;
      (void)out.AddEdge(static_cast<gvex::NodeId>(i), pos[nb.node],
                        nb.edge_type);
    }
  }
  if (g.has_features()) {
    gvex::Matrix features(n, g.feature_dim());
    for (size_t i = 0; i < n; ++i) {
      for (size_t c = 0; c < g.feature_dim(); ++c) {
        features.At(i, c) = g.features().At(order[i], c);
      }
    }
    (void)out.SetFeatures(std::move(features));
  }
  return out;
}

}  // namespace perfbench
