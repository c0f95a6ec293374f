// Unit tests for the attributed graph substrate.
#include <gtest/gtest.h>

#include <cmath>

#include "gvex/graph/graph.h"
#include "gvex/graph/graph_db.h"
#include "gvex/graph/graph_io.h"

namespace gvex {
namespace {

// Path graph 0-1-2-3 with types {0,1,1,2}.
Graph MakePath4() {
  Graph g;
  g.AddNode(0);
  g.AddNode(1);
  g.AddNode(1);
  g.AddNode(2);
  EXPECT_TRUE(g.AddEdge(0, 1).ok());
  EXPECT_TRUE(g.AddEdge(1, 2).ok());
  EXPECT_TRUE(g.AddEdge(2, 3).ok());
  return g;
}

TEST(GraphTest, BasicConstruction) {
  Graph g = MakePath4();
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.node_type(3), 2);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));  // undirected
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_EQ(g.degree(1), 2u);
}

TEST(GraphTest, EdgeValidation) {
  Graph g = MakePath4();
  EXPECT_TRUE(g.AddEdge(0, 0).IsInvalidArgument());
  EXPECT_EQ(g.AddEdge(0, 1).code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(g.AddEdge(0, 9).IsInvalidArgument());
}

TEST(GraphTest, DirectedEdges) {
  Graph g(/*directed=*/true);
  g.AddNode(0);
  g.AddNode(0);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(1, 0));
  EXPECT_EQ(g.GetEdgeType(1, 0), 0);  // reverse lookup finds stored edge
}

TEST(GraphTest, FeatureValidation) {
  Graph g = MakePath4();
  EXPECT_FALSE(g.SetFeatures(Matrix(3, 2)).ok());
  ASSERT_TRUE(g.SetFeatures(Matrix(4, 2, 0.5f)).ok());
  EXPECT_TRUE(g.has_features());
  EXPECT_EQ(g.feature_dim(), 2u);
  Graph h = MakePath4();
  h.SetDefaultFeatures(3, 1.0f);
  EXPECT_FLOAT_EQ(h.features().At(2, 1), 1.0f);
}

TEST(GraphTest, ConnectivityAndComponents) {
  Graph g = MakePath4();
  EXPECT_TRUE(g.IsConnected());
  g.AddNode(5);  // isolated
  EXPECT_FALSE(g.IsConnected());
  auto comps = g.ConnectedComponents();
  ASSERT_EQ(comps.size(), 2u);
  EXPECT_EQ(comps[0].size(), 4u);
  EXPECT_EQ(comps[1].size(), 1u);
}

TEST(GraphTest, KHopNeighborhood) {
  Graph g = MakePath4();
  auto h0 = g.KHopNeighborhood(1, 0);
  EXPECT_EQ(h0, (std::vector<NodeId>{1}));
  auto h1 = g.KHopNeighborhood(1, 1);
  EXPECT_EQ(h1, (std::vector<NodeId>{0, 1, 2}));
  auto h2 = g.KHopNeighborhood(0, 2);
  EXPECT_EQ(h2, (std::vector<NodeId>{0, 1, 2}));
}

TEST(GraphTest, InducedSubgraphKeepsEdgesAndFeatures) {
  Graph g = MakePath4();
  g.SetDefaultFeatures(2, 0.0f);
  g.mutable_features().At(2, 0) = 7.0f;
  Graph sub = g.InducedSubgraph({1, 2, 3});
  EXPECT_EQ(sub.num_nodes(), 3u);
  EXPECT_EQ(sub.num_edges(), 2u);
  EXPECT_EQ(sub.node_type(0), 1);
  EXPECT_EQ(sub.node_type(2), 2);
  EXPECT_TRUE(sub.HasEdge(0, 1));
  EXPECT_TRUE(sub.HasEdge(1, 2));
  EXPECT_FALSE(sub.HasEdge(0, 2));
  EXPECT_FLOAT_EQ(sub.features().At(1, 0), 7.0f);
}

TEST(GraphTest, RemoveNodesIsComplementInduced) {
  Graph g = MakePath4();
  std::vector<NodeId> kept;
  Graph rest = g.RemoveNodes({1}, &kept);
  EXPECT_EQ(kept, (std::vector<NodeId>{0, 2, 3}));
  EXPECT_EQ(rest.num_nodes(), 3u);
  EXPECT_EQ(rest.num_edges(), 1u);  // only 2-3 survives
  EXPECT_FALSE(rest.IsConnected());
}

TEST(GraphTest, NormalizedPropagationRowsAndSymmetry) {
  Graph g = MakePath4();
  CsrMatrix s = g.NormalizedPropagation();
  EXPECT_EQ(s.n(), 4u);
  // Node 0: deg 2 (self + edge to 1). S[0,0] = 1/2, S[0,1] = 1/sqrt(2*3).
  EXPECT_NEAR(s.At(0, 0), 0.5f, 1e-5f);
  EXPECT_NEAR(s.At(0, 1), 1.0f / std::sqrt(6.0f), 1e-5f);
  EXPECT_NEAR(s.At(0, 1), s.At(1, 0), 1e-6f);
  EXPECT_FLOAT_EQ(s.At(0, 2), 0.0f);
  // S is symmetric and its spectral radius is 1, so repeated application
  // must not blow up a vector.
  std::vector<float> v{1.0f, 1.0f, 1.0f, 1.0f};
  for (int i = 0; i < 20; ++i) v = s.MultiplyVector(v);
  for (float x : v) {
    EXPECT_GE(x, 0.0f);
    EXPECT_LE(x, 1.5f);
  }
}

TEST(GraphTest, StructureSignatureDiscriminates) {
  Graph a = MakePath4();
  Graph b = MakePath4();
  EXPECT_EQ(a.StructureSignature(), b.StructureSignature());
  Graph c;
  c.AddNode(0);
  c.AddNode(1);
  c.AddNode(1);
  c.AddNode(2);
  ASSERT_TRUE(c.AddEdge(0, 1).ok());
  ASSERT_TRUE(c.AddEdge(0, 2).ok());
  ASSERT_TRUE(c.AddEdge(0, 3).ok());  // star, same types, same counts
  EXPECT_NE(a.StructureSignature(), c.StructureSignature());
}

TEST(GraphDbTest, LabelGroupsAndStats) {
  GraphDatabase db;
  for (int i = 0; i < 6; ++i) {
    Graph g = MakePath4();
    g.SetDefaultFeatures(2);
    db.Add(std::move(g), i % 2, "g" + std::to_string(i));
  }
  EXPECT_EQ(db.size(), 6u);
  EXPECT_EQ(db.num_classes(), 2u);
  EXPECT_EQ(db.feature_dim(), 2u);
  auto group1 = GraphDatabase::LabelGroup(db.labels(), 1);
  EXPECT_EQ(group1, (std::vector<size_t>{1, 3, 5}));
  EXPECT_EQ(db.TotalNodes(group1), 12u);
  auto stats = db.ComputeStats();
  EXPECT_DOUBLE_EQ(stats.avg_nodes, 4.0);
  EXPECT_DOUBLE_EQ(stats.avg_edges, 3.0);
  EXPECT_EQ(stats.num_classes, 2u);
}

TEST(GraphDbTest, SplitCoversAllDisjointly) {
  GraphDatabase db;
  for (int i = 0; i < 50; ++i) {
    Graph g = MakePath4();
    db.Add(std::move(g), i % 2);
  }
  DataSplit split = SplitDatabase(db, 0.8, 0.1, 13);
  EXPECT_EQ(split.train.size(), 40u);
  EXPECT_EQ(split.validation.size(), 5u);
  EXPECT_EQ(split.test.size(), 5u);
  std::vector<bool> seen(50, false);
  for (auto part : {&split.train, &split.validation, &split.test}) {
    for (size_t i : *part) {
      EXPECT_FALSE(seen[i]);
      seen[i] = true;
    }
  }
}

TEST(GraphIoTest, GraphRoundTrip) {
  Graph g = MakePath4();
  g.SetDefaultFeatures(2, 0.25f);
  g.mutable_features().At(3, 1) = -1.5f;
  TextWriter out;
  ASSERT_TRUE(WriteGraph(g, &out).ok());
  TextReader in(out.str());
  auto back = ReadGraph(&in);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->num_nodes(), 4u);
  EXPECT_EQ(back->num_edges(), 3u);
  EXPECT_EQ(back->node_type(3), 2);
  EXPECT_TRUE(back->HasEdge(1, 2));
  EXPECT_FLOAT_EQ(back->features().At(3, 1), -1.5f);
}

TEST(GraphIoTest, DatabaseRoundTrip) {
  GraphDatabase db;
  for (int i = 0; i < 3; ++i) {
    Graph g = MakePath4();
    g.SetDefaultFeatures(1, static_cast<float>(i));
    db.Add(std::move(g), i, "graph_" + std::to_string(i));
  }
  TextWriter out;
  ASSERT_TRUE(WriteDatabase(db, &out).ok());
  TextReader in(out.str());
  auto back = ReadDatabase(&in);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->size(), 3u);
  EXPECT_EQ(back->label(2), 2);
  EXPECT_EQ(back->name(1), "graph_1");
  EXPECT_FLOAT_EQ(back->graph(2).features().At(0, 0), 2.0f);
}

TEST(GraphIoTest, RejectsCorruptInput) {
  TextReader in("not-a-graph 1 2 3");
  EXPECT_FALSE(ReadGraph(&in).ok());
  TextReader in2("gvexdb-v1 oops");
  EXPECT_FALSE(ReadDatabase(&in2).ok());
}

}  // namespace
}  // namespace gvex
