// Cross-validation: CanonicalCode equality must agree with graph
// isomorphism as decided by an independent oracle (VF2 induced matching
// in both directions on equal-size graphs), on undirected and directed
// graphs.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "gvex/common/rng.h"
#include "gvex/matching/vf2.h"
#include "gvex/mining/canonical.h"

namespace gvex {
namespace {

Graph RandomGraph(Rng* rng, size_t n, size_t num_types, double p,
                  bool directed = false) {
  Graph g(directed);
  for (size_t i = 0; i < n; ++i) {
    g.AddNode(static_cast<NodeType>(rng->NextBounded(num_types)));
  }
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = directed ? 0 : u + 1; v < n; ++v) {
      if (u != v && rng->NextDouble() < p) {
        EXPECT_TRUE(g.AddEdge(u, v).ok());
      }
    }
  }
  return g;
}

bool Vf2Isomorphic(const Graph& a, const Graph& b) {
  if (a.num_nodes() != b.num_nodes() || a.num_edges() != b.num_edges()) {
    return false;
  }
  if (a.num_nodes() == 0) return true;
  MatchOptions induced;
  induced.semantics = MatchSemantics::kInduced;
  // Same size + induced embedding in both directions <=> isomorphic.
  // VF2 refuses disconnected patterns, so compare per component count
  // first and fall back for disconnected graphs.
  if (a.ConnectedComponents().size() != b.ConnectedComponents().size()) {
    return false;
  }
  if (a.ConnectedComponents().size() > 1) {
    // Oracle limited to connected graphs; signal "skip" via canonical
    // equality itself (not used for disconnected cases in the test).
    return CanonicalCode(a) == CanonicalCode(b);
  }
  return Vf2Matcher::HasMatch(a, b, induced) &&
         Vf2Matcher::HasMatch(b, a, induced);
}

class CanonicalOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CanonicalOracleTest, CodesAgreeWithVf2OnConnectedGraphs) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 12; ++trial) {
    Graph a = RandomGraph(&rng, 5 + rng.NextBounded(2), 2, 0.45);
    Graph b = RandomGraph(&rng, 5 + rng.NextBounded(2), 2, 0.45);
    if (!a.IsConnected() || !b.IsConnected()) continue;
    bool canon_equal = CanonicalCode(a) == CanonicalCode(b);
    bool vf2_iso = Vf2Isomorphic(a, b);
    EXPECT_EQ(canon_equal, vf2_iso)
        << "disagreement on trial " << trial << ": " << a.DebugString()
        << " vs " << b.DebugString();
    // A relabeled copy must always agree under both deciders.
    std::vector<NodeId> perm(a.num_nodes());
    for (NodeId v = 0; v < a.num_nodes(); ++v) perm[v] = v;
    rng.Shuffle(&perm);
    Graph shuffled = a.InducedSubgraph(perm);
    EXPECT_EQ(CanonicalCode(a), CanonicalCode(shuffled));
    EXPECT_TRUE(Vf2Isomorphic(a, shuffled));
  }
}

// Directed graphs: arcs either way (and both ways) between same-type
// nodes, so isomorphic pairs are common and direction alone tells apart
// the rest.
TEST_P(CanonicalOracleTest, DirectedCodesAgreeWithVf2) {
  Rng rng(GetParam() + 100);
  size_t isomorphic = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const size_t n = 2 + rng.NextBounded(3);
    const size_t types = 1 + rng.NextBounded(2);
    Graph a = RandomGraph(&rng, n, types, 0.4, /*directed=*/true);
    Graph b = RandomGraph(&rng, n, types, 0.4, /*directed=*/true);
    if (!a.IsConnected() || !b.IsConnected()) continue;
    bool canon_equal = CanonicalCode(a) == CanonicalCode(b);
    bool vf2_iso = Vf2Isomorphic(a, b);
    EXPECT_EQ(canon_equal, vf2_iso)
        << "disagreement on trial " << trial << ": " << a.DebugString()
        << " vs " << b.DebugString();
    isomorphic += vf2_iso;
    std::vector<NodeId> perm(a.num_nodes());
    for (NodeId v = 0; v < a.num_nodes(); ++v) perm[v] = v;
    rng.Shuffle(&perm);
    Graph shuffled = a.InducedSubgraph(perm);
    EXPECT_EQ(CanonicalCode(a), CanonicalCode(shuffled));
    EXPECT_EQ(CanonicalCode(a), CanonicalCode(a, perm));
    EXPECT_TRUE(Vf2Isomorphic(a, shuffled));
  }
  EXPECT_GT(isomorphic, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CanonicalOracleTest,
                         ::testing::Range<uint64_t>(1, 9));

// `n` nodes of one type, wired by `arcs`.
Graph Directed(size_t n,
               std::initializer_list<std::pair<NodeId, NodeId>> arcs) {
  Graph g(/*directed=*/true);
  for (size_t i = 0; i < n; ++i) g.AddNode(0);
  for (auto [u, v] : arcs) EXPECT_TRUE(g.AddEdge(u, v).ok());
  return g;
}

TEST(CanonicalDirectedTest, CodesSeeArcsInBothDirections) {
  // Each direction of a pair is encoded: an arc is not an empty pair, and
  // a chain, an in-star and an out-star on same-type nodes differ.
  const std::string pair = CanonicalCode(Directed(2, {}));
  EXPECT_NE(CanonicalCode(Directed(2, {{0, 1}})), pair);
  EXPECT_NE(CanonicalCode(Directed(2, {{1, 0}})), pair);
  const std::string chain = CanonicalCode(Directed(3, {{0, 1}, {1, 2}}));
  const std::string in_star = CanonicalCode(Directed(3, {{1, 0}, {2, 0}}));
  const std::string out_star = CanonicalCode(Directed(3, {{0, 1}, {0, 2}}));
  EXPECT_NE(chain, in_star);
  EXPECT_NE(chain, out_star);
  EXPECT_NE(in_star, out_star);
  EXPECT_NE(chain, CanonicalCode(Directed(3, {})));
  // Relabeled copies keep their code; a 2-cycle is not an arc.
  EXPECT_EQ(chain, CanonicalCode(Directed(3, {{2, 0}, {0, 1}})));
  EXPECT_EQ(CanonicalCode(Directed(2, {{0, 1}})),
            CanonicalCode(Directed(2, {{1, 0}})));
  EXPECT_NE(CanonicalCode(Directed(2, {{0, 1}, {1, 0}})),
            CanonicalCode(Directed(2, {{0, 1}})));
}

}  // namespace
}  // namespace gvex
