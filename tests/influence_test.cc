// Unit + property tests for the influence machinery: backend agreement,
// Eq. 4 normalization, bitset set algebra, accumulator consistency (adds and
// removes against a from-scratch rebuild), and the monotone-submodularity
// property of Lemma 3.3.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>

#include "gvex/common/bitset.h"
#include "gvex/common/rng.h"
#include "gvex/datasets/datasets.h"
#include "gvex/influence/influence.h"

namespace gvex {
namespace {

Graph MakeStarGraph(size_t leaves, uint64_t seed) {
  Graph g;
  g.AddNode(0);
  for (size_t i = 0; i < leaves; ++i) {
    g.AddNode(1);
    EXPECT_TRUE(g.AddEdge(0, static_cast<NodeId>(i + 1)).ok());
  }
  Matrix f(g.num_nodes(), 3);
  Rng rng(seed);
  for (size_t i = 0; i < f.size(); ++i) {
    f.data()[i] = static_cast<float>(rng.NextGaussian());
  }
  EXPECT_TRUE(g.SetFeatures(std::move(f)).ok());
  return g;
}

GcnClassifier MakeModel(size_t input_dim, uint64_t seed = 17) {
  GcnConfig cfg;
  cfg.input_dim = input_dim;
  cfg.hidden_dim = 8;
  cfg.num_layers = 2;
  cfg.num_classes = 2;
  cfg.seed = seed;
  auto m = GcnClassifier::Create(cfg);
  EXPECT_TRUE(m.ok());
  return std::move(m).ValueOrDie();
}

TEST(BitsetTest, BasicOperations) {
  DynamicBitset b(130);
  EXPECT_EQ(b.Count(), 0u);
  EXPECT_FALSE(b.Any());
  b.Set(0);
  b.Set(64);
  b.Set(129);
  EXPECT_TRUE(b.Test(64));
  EXPECT_FALSE(b.Test(63));
  EXPECT_EQ(b.Count(), 3u);
  EXPECT_EQ(b.ToVector(), (std::vector<size_t>{0, 64, 129}));
  b.Reset(64);
  EXPECT_EQ(b.Count(), 2u);
}

TEST(BitsetTest, UnionAlgebra) {
  DynamicBitset a(70), b(70);
  a.Set(1);
  a.Set(65);
  b.Set(65);
  b.Set(2);
  EXPECT_EQ(a.UnionCount(b), 3u);
  EXPECT_EQ(a.MarginalCount(b), 1u);  // only bit 2 is new
  a.UnionWith(b);
  EXPECT_EQ(a.Count(), 3u);
  a.Clear();
  EXPECT_FALSE(b == a);
  EXPECT_EQ(a.Count(), 0u);
}

TEST(BitsetTest, FindNextAndSubtract) {
  DynamicBitset a(130), b(130);
  EXPECT_EQ(a.FindNext(0), 130u);
  for (size_t i : {3, 63, 64, 129}) a.Set(i);
  EXPECT_EQ(a.FindNext(0), 3u);
  EXPECT_EQ(a.FindNext(4), 63u);
  EXPECT_EQ(a.FindNext(64), 64u);
  EXPECT_EQ(a.FindNext(65), 129u);
  EXPECT_EQ(a.FindNext(130), 130u);
  std::vector<size_t> walked;
  for (size_t i = a.FindNext(0); i < a.size(); i = a.FindNext(i + 1)) {
    walked.push_back(i);
  }
  EXPECT_EQ(walked, a.ToVector());
  b.Set(63);
  b.Set(100);
  a.Subtract(b);
  EXPECT_EQ(a.ToVector(), (std::vector<size_t>{3, 64, 129}));
}

TEST(InfluenceTest, RequiresFeatures) {
  Graph g;
  g.AddNode(0);
  GcnClassifier model = MakeModel(3);
  InfluenceOptions opts;
  EXPECT_FALSE(InfluenceAnalyzer::Build(model, g, opts).ok());
}

TEST(InfluenceTest, EmptyGraphIsTrivial) {
  GcnClassifier model = MakeModel(3);
  Graph empty;
  auto a = InfluenceAnalyzer::Build(model, empty, {});
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->num_nodes(), 0u);
}

TEST(InfluenceTest, I2RowsNormalizeToOne) {
  Graph g = MakeStarGraph(5, 3);
  GcnClassifier model = MakeModel(3);
  InfluenceOptions opts;
  opts.backend = InfluenceBackend::kRandomWalk;
  auto a = InfluenceAnalyzer::Build(model, g, opts);
  ASSERT_TRUE(a.ok());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    double sum = 0.0;
    for (NodeId u = 0; u < g.num_nodes(); ++u) sum += a->I2(u, v);
    EXPECT_NEAR(sum, 1.0, 1e-4);
  }
}

TEST(InfluenceTest, RandomWalkCenterDominatesInStar) {
  // In a star, the hub reaches everything in one hop; its influence on the
  // leaves must exceed a far leaf's influence on another leaf.
  Graph g = MakeStarGraph(6, 4);
  GcnClassifier model = MakeModel(3);
  InfluenceOptions opts;
  opts.backend = InfluenceBackend::kRandomWalk;
  auto a = InfluenceAnalyzer::Build(model, g, opts);
  ASSERT_TRUE(a.ok());
  EXPECT_GT(a->I2(/*u=*/0, /*v=*/1), a->I2(/*u=*/2, /*v=*/1));
}

TEST(InfluenceTest, ExactBackendRespectsNodeLimit) {
  Graph g = MakeStarGraph(5, 5);
  GcnClassifier model = MakeModel(3);
  InfluenceOptions opts;
  opts.backend = InfluenceBackend::kExactJacobian;
  opts.exact_backend_node_limit = 3;
  EXPECT_EQ(InfluenceAnalyzer::Build(model, g, opts).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(InfluenceTest, BackendsAgreeOnInfluenceRanking) {
  // The random-walk surrogate should broadly agree with the exact Jacobian
  // about who the most influential node is (hub of a star).
  Graph g = MakeStarGraph(5, 6);
  GcnClassifier model = MakeModel(3);
  InfluenceOptions exact_opts;
  exact_opts.backend = InfluenceBackend::kExactJacobian;
  auto exact = InfluenceAnalyzer::Build(model, g, exact_opts);
  ASSERT_TRUE(exact.ok());
  InfluenceOptions rw_opts;
  rw_opts.backend = InfluenceBackend::kRandomWalk;
  auto rw = InfluenceAnalyzer::Build(model, g, rw_opts);
  ASSERT_TRUE(rw.ok());

  auto total_outgoing = [&](const InfluenceAnalyzer& a, NodeId u) {
    double total = 0.0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) total += a.I2(u, v);
    return total;
  };
  // Hub (node 0) is the top influencer under both backends.
  for (NodeId u = 1; u < g.num_nodes(); ++u) {
    EXPECT_GE(total_outgoing(*exact, 0), total_outgoing(*exact, u));
    EXPECT_GE(total_outgoing(*rw, 0), total_outgoing(*rw, u));
  }
}

TEST(InfluenceTest, ZeroRadiusBallsAreSingletonsOrTies) {
  Graph g = MakeStarGraph(4, 7);
  GcnClassifier model = MakeModel(3);
  InfluenceOptions opts;
  opts.radius = 0.0f;
  auto a = InfluenceAnalyzer::Build(model, g, opts);
  ASSERT_TRUE(a.ok());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_TRUE(a->Ball(v).Test(v));  // distance 0 to itself
  }
}

TEST(InfluenceTest, ScoresMatchAccumulator) {
  Graph g = MakeStarGraph(6, 8);
  GcnClassifier model = MakeModel(3);
  InfluenceOptions opts;
  opts.theta = 0.05f;
  opts.radius = 0.3f;
  auto a = InfluenceAnalyzer::Build(model, g, opts);
  ASSERT_TRUE(a.ok());

  std::vector<NodeId> vs{0, 2, 5};
  InfluenceAccumulator acc(&*a);
  for (NodeId v : vs) acc.Add(v);
  EXPECT_EQ(acc.influence_count(), a->InfluenceScore(vs));
  EXPECT_EQ(acc.diversity_count(), a->DiversityScore(vs));

  const float gamma = 0.5f;
  double direct = static_cast<double>(a->InfluenceScore(vs)) +
                  gamma * static_cast<double>(a->DiversityScore(vs));
  EXPECT_DOUBLE_EQ(acc.Score(gamma), direct);
}

TEST(InfluenceTest, ScoreWithEqualsAddThenScore) {
  Graph g = MakeStarGraph(7, 9);
  GcnClassifier model = MakeModel(3);
  InfluenceOptions opts;
  opts.theta = 0.05f;
  auto a = InfluenceAnalyzer::Build(model, g, opts);
  ASSERT_TRUE(a.ok());
  InfluenceAccumulator acc(&*a);
  acc.Add(1);
  const float gamma = 0.7f;
  double predicted = acc.ScoreWith(0, gamma);
  acc.Add(0);
  EXPECT_DOUBLE_EQ(acc.Score(gamma), predicted);
}

TEST(InfluenceTest, RebuildMatchesIncrementalAdds) {
  Graph g = MakeStarGraph(6, 10);
  GcnClassifier model = MakeModel(3);
  auto a = InfluenceAnalyzer::Build(model, g, {});
  ASSERT_TRUE(a.ok());
  InfluenceAccumulator incremental(&*a);
  incremental.Add(3);
  incremental.Add(0);
  incremental.Add(5);
  InfluenceAccumulator rebuilt(&*a);
  rebuilt.Rebuild({3, 0, 5});
  EXPECT_EQ(incremental.influence_count(), rebuilt.influence_count());
  EXPECT_EQ(incremental.diversity_count(), rebuilt.diversity_count());
}

// ---- the invertible accumulator against a from-scratch oracle -------------

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// The test oracle for ScoreWithout: the removal loss as the stream solver
// once computed it, by rebuilding V_S \ {v} from scratch.
InfluenceAccumulator RebuiltWithout(const InfluenceAnalyzer& a,
                                    const std::vector<NodeId>& vs, NodeId v) {
  std::vector<NodeId> without;
  for (NodeId u : vs) {
    if (u != v) without.push_back(u);
  }
  InfluenceAccumulator acc(&a);
  acc.Rebuild(without);
  return acc;
}

// ScoreWithout probes by path: nothing left the influence union, or
// something did.
struct RemovalPaths {
  size_t kept = 0;
  size_t lost = 0;
};

// Random adds and removes of distinct nodes. After every step the
// accumulator must equal a rebuild of the same set, and each selected
// node's ScoreWithout the rebuild without it, bit for bit.
RemovalPaths CheckAgainstRebuild(const InfluenceAnalyzer& a, uint64_t seed,
                                 size_t steps, size_t max_selected) {
  const float gamma = 0.5f;
  Rng rng(seed);
  InfluenceAccumulator acc(&a);
  std::vector<NodeId> vs;
  RemovalPaths paths;
  for (size_t step = 0; step < steps; ++step) {
    if (vs.empty() || (vs.size() < max_selected && rng.NextBool(0.6))) {
      const NodeId v = static_cast<NodeId>(rng.NextBounded(a.num_nodes()));
      if (std::find(vs.begin(), vs.end(), v) != vs.end()) continue;
      vs.push_back(v);
      acc.Add(v);
    } else {
      const size_t i = rng.NextBounded(vs.size());
      acc.Remove(vs[i]);
      vs.erase(vs.begin() + static_cast<ptrdiff_t>(i));
    }
    InfluenceAccumulator rebuilt(&a);
    rebuilt.Rebuild(vs);
    EXPECT_EQ(acc.influence_count(), rebuilt.influence_count());
    EXPECT_EQ(acc.diversity_count(), rebuilt.diversity_count());
    EXPECT_EQ(Bits(acc.Score(gamma)), Bits(rebuilt.Score(gamma)));
    for (NodeId v : vs) {
      InfluenceAccumulator oracle = RebuiltWithout(a, vs, v);
      EXPECT_EQ(Bits(acc.ScoreWithout(v, gamma)), Bits(oracle.Score(gamma)))
          << "step " << step << ", node " << v;
      if (oracle.influence_count() == acc.influence_count()) {
        ++paths.kept;
      } else {
        ++paths.lost;
      }
    }
    // ScoreWithout probes left the accumulator as it was.
    EXPECT_EQ(Bits(acc.Score(gamma)), Bits(rebuilt.Score(gamma)));
  }
  return paths;
}

TEST(InfluenceTest, RemovalMatchesRebuildOnStar) {
  Graph g = MakeStarGraph(12, 11);
  InfluenceOptions opts;
  opts.theta = 0.05f;
  opts.radius = 0.3f;
  auto a = InfluenceAnalyzer::Build(MakeModel(3), g, opts);
  ASSERT_TRUE(a.ok());
  RemovalPaths paths;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    RemovalPaths p = CheckAgainstRebuild(*a, seed, 80, 8);
    paths.kept += p.kept;
    paths.lost += p.lost;
  }
  EXPECT_GT(paths.kept, 0u);
  EXPECT_GT(paths.lost, 0u);
}

TEST(InfluenceTest, RemovalMatchesRebuildOnEnzGraph) {
  GraphDatabase db = datasets::MakeByName("ENZ", 0.05, 7).ValueOrDie();
  const Graph& g = db.graph(0);
  InfluenceOptions opts;
  opts.theta = 0.08f;
  opts.radius = 0.25f;
  auto a = InfluenceAnalyzer::Build(MakeModel(db.feature_dim()), g, opts);
  ASSERT_TRUE(a.ok());
  RemovalPaths paths;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    RemovalPaths p = CheckAgainstRebuild(*a, seed, 80, 15);
    paths.kept += p.kept;
    paths.lost += p.lost;
  }
  EXPECT_GT(paths.kept, 0u);
  EXPECT_GT(paths.lost, 0u);
}

TEST(InfluenceTest, RemovalMatchesRebuildOnLargeBalls) {
  // A ~1000-node call graph with a radius wide enough that one ball holds
  // most of the graph: the regime where a removal must not cost a
  // per-element recount.
  datasets::MalnetOptions mo;
  mo.num_graphs = 1;
  mo.min_functions = 1000;
  mo.max_functions = 1000;
  GraphDatabase db = datasets::MakeMalnet(mo);
  const Graph& g = db.graph(0);
  ASSERT_GE(g.num_nodes(), 1000u);  // planted motifs add a few
  InfluenceOptions opts;
  opts.theta = 0.08f;
  opts.radius = 0.5f;
  auto a = InfluenceAnalyzer::Build(MakeModel(db.feature_dim()), g, opts);
  ASSERT_TRUE(a.ok());
  size_t largest_ball = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    largest_ball = std::max(largest_ball, a->Ball(v).Count());
  }
  EXPECT_GT(largest_ball, g.num_nodes() / 2);
  RemovalPaths paths = CheckAgainstRebuild(*a, 5, 60, 15);
  EXPECT_GT(paths.kept + paths.lost, 0u);
  EXPECT_GT(paths.lost, 0u);
}

// ---- Lemma 3.3 property tests: monotonicity and submodularity -------------

class SubmodularityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SubmodularityTest, ScoreIsMonotoneSubmodular) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  // Random connected-ish graph.
  Graph g;
  const size_t n = 10;
  for (size_t i = 0; i < n; ++i) g.AddNode(static_cast<NodeType>(i % 3));
  for (size_t i = 1; i < n; ++i) {
    ASSERT_TRUE(
        g.AddEdge(static_cast<NodeId>(rng.NextBounded(i)), static_cast<NodeId>(i))
            .ok());
  }
  for (int extra = 0; extra < 5; ++extra) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(n));
    NodeId v = static_cast<NodeId>(rng.NextBounded(n));
    if (u != v && !g.HasEdge(u, v)) {
      ASSERT_TRUE(g.AddEdge(u, v).ok());
    }
  }
  Matrix f(n, 3);
  for (size_t i = 0; i < f.size(); ++i) {
    f.data()[i] = static_cast<float>(rng.NextGaussian());
  }
  ASSERT_TRUE(g.SetFeatures(std::move(f)).ok());

  GcnClassifier model = MakeModel(3, seed + 1);
  InfluenceOptions opts;
  opts.theta = 0.08f;
  opts.radius = 0.25f;
  auto a = InfluenceAnalyzer::Build(model, g, opts);
  ASSERT_TRUE(a.ok());

  const float gamma = 0.5f;
  auto score = [&](const std::vector<NodeId>& vs) {
    return static_cast<double>(a->InfluenceScore(vs)) +
           gamma * static_cast<double>(a->DiversityScore(vs));
  };

  // Draw nested random sets A ⊆ B and an element u ∉ B; check
  // monotonicity f(A) <= f(B) and submodularity
  // f(A ∪ u) - f(A) >= f(B ∪ u) - f(B).
  for (int trial = 0; trial < 20; ++trial) {
    auto b_idx = rng.SampleWithoutReplacement(n, 2 + rng.NextBounded(5));
    std::vector<NodeId> b_set(b_idx.begin(), b_idx.end());
    std::vector<NodeId> a_set(b_set.begin(),
                              b_set.begin() + 1 + rng.NextBounded(b_set.size() - 1));
    NodeId u;
    do {
      u = static_cast<NodeId>(rng.NextBounded(n));
    } while (std::find(b_set.begin(), b_set.end(), u) != b_set.end());

    double fa = score(a_set);
    double fb = score(b_set);
    EXPECT_LE(fa, fb + 1e-9) << "monotonicity violated";

    std::vector<NodeId> au = a_set;
    au.push_back(u);
    std::vector<NodeId> bu = b_set;
    bu.push_back(u);
    double gain_a = score(au) - fa;
    double gain_b = score(bu) - fb;
    EXPECT_GE(gain_a, gain_b - 1e-9) << "submodularity violated";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SubmodularityTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace gvex
