// Cross-cutting property tests (parameterized over random seeds):
//  * Psum always achieves full node coverage on arbitrary subgraph sets;
//  * ReducePatterns preserves coverage while never growing the set;
//  * GCN respects the disjoint-union/max-pool algebra;
//  * graph serialization round-trips random graphs exactly;
//  * coverage results are monotone in the pattern set.
#include <gtest/gtest.h>


#include "gvex/common/rng.h"
#include "gvex/explain/psum.h"
#include "gvex/explain/stream_gvex.h"
#include "gvex/gnn/model.h"
#include "gvex/graph/graph_io.h"
#include "gvex/matching/vf2.h"
#include "gvex/mining/pgen.h"

namespace gvex {
namespace {

Graph RandomTypedGraph(Rng* rng, size_t max_nodes, size_t num_types,
                       double edge_prob) {
  size_t n = 2 + rng->NextBounded(max_nodes - 1);
  Graph g;
  for (size_t i = 0; i < n; ++i) {
    g.AddNode(static_cast<NodeType>(rng->NextBounded(num_types)));
  }
  // Spanning tree for connectivity + random extra edges.
  for (size_t i = 1; i < n; ++i) {
    Status st = g.AddEdge(static_cast<NodeId>(rng->NextBounded(i)),
                          static_cast<NodeId>(i),
                          static_cast<EdgeType>(rng->NextBounded(2)));
    EXPECT_TRUE(st.ok());
  }
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (!g.HasEdge(u, v) && rng->NextDouble() < edge_prob) {
        Status st = g.AddEdge(u, v, static_cast<EdgeType>(rng->NextBounded(2)));
        EXPECT_TRUE(st.ok());
      }
    }
  }
  return g;
}

class SeededPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeededPropertyTest, PsumAlwaysCoversAllNodes) {
  Rng rng(GetParam());
  std::vector<Graph> subgraphs;
  size_t count = 1 + rng.NextBounded(4);
  for (size_t i = 0; i < count; ++i) {
    subgraphs.push_back(RandomTypedGraph(&rng, 9, 3, 0.2));
  }
  Configuration config;
  PsumResult result = Psum(subgraphs, config);
  EXPECT_TRUE(result.full_node_coverage);
  EXPECT_GE(result.edge_loss, 0.0);
  EXPECT_LE(result.edge_loss, 1.0);
  // Independent re-check with PMatch.
  for (const Graph& sub : subgraphs) {
    CoverageResult cov = ComputeCoverage(result.patterns, sub, config.match);
    EXPECT_EQ(cov.covered_nodes.Count(), sub.num_nodes());
  }
}

TEST_P(SeededPropertyTest, ReducePatternsPreservesCoverage) {
  Rng rng(GetParam() + 100);
  std::vector<Graph> subgraphs;
  for (int i = 0; i < 3; ++i) {
    subgraphs.push_back(RandomTypedGraph(&rng, 8, 2, 0.25));
  }
  Configuration config;
  // Build an over-complete pattern pool: Psum's patterns plus noise
  // singletons for every type.
  PsumResult base = Psum(subgraphs, config);
  std::vector<Graph> pool = base.patterns;
  for (NodeType t = 0; t < 2; ++t) {
    Graph s;
    s.AddNode(t);
    pool.push_back(std::move(s));
  }
  PatternReduction reduced = ReducePatterns(pool, subgraphs, config);
  EXPECT_LE(reduced.patterns.size(), pool.size());
  for (const Graph& sub : subgraphs) {
    CoverageResult cov =
        ComputeCoverage(reduced.patterns, sub, config.match);
    EXPECT_EQ(cov.covered_nodes.Count(), sub.num_nodes())
        << "reduction broke coverage";
  }
}

TEST_P(SeededPropertyTest, CoverageIsMonotoneInPatternSet) {
  Rng rng(GetParam() + 200);
  Graph target = RandomTypedGraph(&rng, 10, 2, 0.3);
  PgenOptions pgen;
  pgen.max_pattern_nodes = 3;
  pgen.max_candidates = 6;
  auto candidates = GeneratePatternCandidates({target}, pgen);
  if (candidates.size() < 2) GTEST_SKIP() << "not enough candidates";
  std::vector<Graph> small{candidates[0].pattern};
  std::vector<Graph> large{candidates[0].pattern, candidates[1].pattern};
  MatchOptions match;
  auto cov_small = ComputeCoverage(small, target, match);
  auto cov_large = ComputeCoverage(large, target, match);
  EXPECT_GE(cov_large.covered_nodes.Count(), cov_small.covered_nodes.Count());
  EXPECT_GE(cov_large.covered_edges.Count(), cov_small.covered_edges.Count());
}

TEST_P(SeededPropertyTest, GraphIoRoundTripsRandomGraphs) {
  Rng rng(GetParam() + 300);
  Graph g = RandomTypedGraph(&rng, 15, 4, 0.2);
  Matrix f(g.num_nodes(), 3);
  for (size_t i = 0; i < f.size(); ++i) {
    f.data()[i] = static_cast<float>(rng.NextInt(-100, 100)) / 8.0f;
  }
  ASSERT_TRUE(g.SetFeatures(std::move(f)).ok());

  TextWriter out;
  ASSERT_TRUE(WriteGraph(g, &out).ok());
  TextReader in(out.str());
  auto back = ReadGraph(&in);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_nodes(), g.num_nodes());
  EXPECT_EQ(back->num_edges(), g.num_edges());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(back->node_type(v), g.node_type(v));
    for (const auto& nb : g.neighbors(v)) {
      EXPECT_EQ(back->GetEdgeType(v, nb.node), nb.edge_type);
    }
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_FLOAT_EQ(back->features().At(v, c), g.features().At(v, c));
    }
  }
}

TEST_P(SeededPropertyTest, GcnDisjointUnionMaxPoolAlgebra) {
  // For a GCN with max-pool readout, the pooled embedding of a disjoint
  // union is the element-wise max of the components' pooled embeddings
  // (the propagation operator is block-diagonal).
  Rng rng(GetParam() + 400);
  Graph a = RandomTypedGraph(&rng, 6, 2, 0.3);
  Graph b = RandomTypedGraph(&rng, 6, 2, 0.3);
  const size_t d = 3;
  auto randomize = [&](Graph* g) {
    Matrix f(g->num_nodes(), d);
    for (size_t i = 0; i < f.size(); ++i) {
      f.data()[i] = static_cast<float>(rng.NextGaussian());
    }
    ASSERT_TRUE(g->SetFeatures(std::move(f)).ok());
  };
  randomize(&a);
  randomize(&b);

  // Union graph.
  Graph u;
  for (NodeId v = 0; v < a.num_nodes(); ++v) u.AddNode(a.node_type(v));
  for (NodeId v = 0; v < b.num_nodes(); ++v) u.AddNode(b.node_type(v));
  for (NodeId x = 0; x < a.num_nodes(); ++x) {
    for (const auto& nb : a.neighbors(x)) {
      if (nb.node > x) {
        ASSERT_TRUE(u.AddEdge(x, nb.node, nb.edge_type).ok());
      }
    }
  }
  const NodeId off = static_cast<NodeId>(a.num_nodes());
  for (NodeId x = 0; x < b.num_nodes(); ++x) {
    for (const auto& nb : b.neighbors(x)) {
      if (nb.node > x) {
        ASSERT_TRUE(u.AddEdge(off + x, off + nb.node, nb.edge_type).ok());
      }
    }
  }
  Matrix fu(u.num_nodes(), d);
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    for (size_t c = 0; c < d; ++c) fu.At(v, c) = a.features().At(v, c);
  }
  for (NodeId v = 0; v < b.num_nodes(); ++v) {
    for (size_t c = 0; c < d; ++c) fu.At(off + v, c) = b.features().At(v, c);
  }
  ASSERT_TRUE(u.SetFeatures(std::move(fu)).ok());

  GcnConfig cfg;
  cfg.input_dim = d;
  cfg.hidden_dim = 8;
  cfg.num_layers = 2;
  cfg.num_classes = 2;
  cfg.seed = GetParam() + 5;
  auto model = GcnClassifier::Create(cfg);
  ASSERT_TRUE(model.ok());

  GcnTrace ta = model->Forward(a);
  GcnTrace tb = model->Forward(b);
  GcnTrace tu = model->Forward(u);
  for (size_t h = 0; h < cfg.hidden_dim; ++h) {
    EXPECT_NEAR(tu.pooled[h], std::max(ta.pooled[h], tb.pooled[h]), 1e-4f);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededPropertyTest,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace gvex
