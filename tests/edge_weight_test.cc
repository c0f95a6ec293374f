// Tests for the edge-type-weighted propagation extension (the paper's
// "impact of edge features" future-work direction).
#include <gtest/gtest.h>

#include <cmath>

#include "gvex/gnn/serialize.h"
#include "gvex/graph/graph.h"
#include "tests/test_util.h"

namespace gvex {
namespace {

Graph TwoEdgeGraph() {
  Graph g;
  g.AddNode(0);
  g.AddNode(0);
  g.AddNode(0);
  EXPECT_TRUE(g.AddEdge(0, 1, /*type=*/0).ok());
  EXPECT_TRUE(g.AddEdge(1, 2, /*type=*/1).ok());
  return g;
}

TEST(EdgeWeightTest, UnweightedMatchesDefault) {
  Graph g = TwoEdgeGraph();
  CsrMatrix plain = g.NormalizedPropagation();
  std::vector<float> unit{1.0f, 1.0f};
  CsrMatrix weighted = g.NormalizedPropagation(&unit);
  ASSERT_EQ(plain.nnz(), weighted.nnz());
  for (size_t k = 0; k < plain.nnz(); ++k) {
    EXPECT_NEAR(plain.values()[k], weighted.values()[k], 1e-6f);
  }
}

TEST(EdgeWeightTest, HeavierTypeGetsLargerEntry) {
  Graph g = TwoEdgeGraph();
  std::vector<float> weights{1.0f, 3.0f};
  CsrMatrix s = g.NormalizedPropagation(&weights);
  // Raw weighted entries before normalization: edge (0,1) weight 1,
  // edge (1,2) weight 3. After symmetric normalization the (1,2) entry
  // must exceed the (0,1) entry.
  EXPECT_GT(s.At(1, 2), s.At(0, 1));
  // Symmetry preserved.
  EXPECT_NEAR(s.At(1, 2), s.At(2, 1), 1e-6f);
  // Weighted degrees: node 0 has deg 1+1=2 -> diagonal 1/2.
  EXPECT_NEAR(s.At(0, 0), 0.5f, 1e-5f);
  // Node 1: 1 + 1 + 3 = 5.
  EXPECT_NEAR(s.At(1, 1), 1.0f / 5.0f, 1e-5f);
}

TEST(EdgeWeightTest, UnknownTypesDefaultToOne) {
  Graph g = TwoEdgeGraph();
  std::vector<float> only_type0{2.0f};  // type 1 not covered
  CsrMatrix s = g.NormalizedPropagation(&only_type0);
  // Type-1 edge gets weight 1: node 2's weighted degree is 1 + 1 = 2.
  EXPECT_NEAR(s.At(2, 2), 0.5f, 1e-5f);
}

TEST(EdgeWeightTest, ModelUsesConfiguredWeights) {
  Graph g = TwoEdgeGraph();
  g.SetDefaultFeatures(2, 1.0f);
  GcnConfig cfg;
  cfg.input_dim = 2;
  cfg.hidden_dim = 4;
  cfg.num_layers = 2;
  cfg.num_classes = 2;
  auto plain = GcnClassifier::Create(cfg);
  ASSERT_TRUE(plain.ok());
  cfg.edge_type_weights = {1.0f, 4.0f};
  auto weighted = GcnClassifier::Create(cfg);
  ASSERT_TRUE(weighted.ok());
  auto pp = plain->PredictProba(g);
  auto pw = weighted->PredictProba(g);
  // Same initial parameters (same seed), different propagation: outputs
  // must differ.
  bool differs = false;
  for (size_t i = 0; i < pp.size(); ++i) {
    if (std::fabs(pp[i] - pw[i]) > 1e-6f) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(EdgeWeightTest, WeightsSurviveSerialization) {
  GcnConfig cfg;
  cfg.input_dim = 2;
  cfg.hidden_dim = 4;
  cfg.num_layers = 1;
  cfg.num_classes = 2;
  cfg.edge_type_weights = {1.0f, 2.5f, 0.5f};
  auto model = GcnClassifier::Create(cfg);
  ASSERT_TRUE(model.ok());
  TextWriter out;
  ASSERT_TRUE(GcnSerializer::Write(*model, &out).ok());
  TextReader in(out.str());
  auto loaded = GcnSerializer::Read(&in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->config().edge_type_weights.size(), 3u);
  EXPECT_FLOAT_EQ(loaded->config().edge_type_weights[1], 2.5f);
}

}  // namespace
}  // namespace gvex
