// Equivalence property tests for the indexed VF2 fast path and the
// MatchCache: both must be observationally identical to the reference
// matcher. The indexed matcher is pinned byte-for-byte (same match
// vectors in the same order), not just count-equal — the pruning is only
// allowed to skip candidates the reference search would also reject.
//
// Budgeted searches (max_steps > 0) follow a weaker, explicit contract
// (see vf2.h): pruning changes how many backtracking steps a search
// consumes — the reference burns steps on subtrees the index skips, so
// the two may truncate at different points. What must still hold, and is
// pinned below, is the prefix relation: the reference's budgeted match
// list is a prefix of the indexed matcher's budgeted list, which is a
// prefix of the full unbudgeted sequence. The cache bypasses budgeted
// searches entirely (see match_cache.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "gvex/common/rng.h"
#include "gvex/matching/match_cache.h"
#include "gvex/matching/vf2.h"
#include "gvex/obs/obs.h"

namespace gvex {
namespace {

Graph RandomTarget(Rng& rng, bool directed, size_t n, double edge_prob,
                   int num_types, int num_edge_types) {
  Graph g(directed);
  for (size_t i = 0; i < n; ++i) {
    g.AddNode(static_cast<NodeType>(rng.NextBounded(num_types)));
  }
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = directed ? 0 : u + 1; v < n; ++v) {
      if (u == v || g.HasEdge(u, v)) continue;
      if (rng.NextBool(edge_prob)) {
        EdgeType et = static_cast<EdgeType>(rng.NextBounded(num_edge_types));
        EXPECT_TRUE(g.AddEdge(u, v, et).ok());
      }
    }
  }
  return g;
}

// A connected pattern sampled from the target itself (so matches usually
// exist), falling back to a fresh 2-node pattern when the target is too
// sparse to yield one.
Graph SampleConnectedPattern(Rng& rng, const Graph& target, size_t size) {
  for (int attempt = 0; attempt < 32; ++attempt) {
    std::vector<NodeId> nodes;
    while (nodes.size() < size) {
      NodeId v = static_cast<NodeId>(rng.NextBounded(target.num_nodes()));
      bool dup = false;
      for (NodeId u : nodes) dup |= (u == v);
      if (!dup) nodes.push_back(v);
    }
    Graph cand = target.InducedSubgraph(nodes);
    if (cand.IsConnected()) return cand;
  }
  Graph p(target.directed());
  p.AddNode(0);
  p.AddNode(1);
  EXPECT_TRUE(p.AddEdge(0, 1).ok());
  return p;
}

class MatchEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MatchEquivalenceTest, IndexedMatcherIsByteIdentical) {
  Rng rng(GetParam());
  for (bool directed : {false, true}) {
    Graph target = RandomTarget(rng, directed, 10, directed ? 0.22 : 0.3,
                                /*num_types=*/3, /*num_edge_types=*/2);
    for (size_t psize : {2u, 3u, 4u}) {
      Graph pattern = SampleConnectedPattern(rng, target, psize);
      for (MatchSemantics sem :
           {MatchSemantics::kInduced, MatchSemantics::kSubgraph}) {
        MatchOptions opts;
        opts.semantics = sem;
        std::vector<Match> fast =
            Vf2Matcher::FindMatches(pattern, target, opts);
        std::vector<Match> ref =
            Vf2ReferenceMatcher::FindMatches(pattern, target, opts);
        ASSERT_EQ(fast, ref)
            << "directed=" << directed << " psize=" << psize
            << " semantics=" << static_cast<int>(sem);

        // Because the full sequences agree, every capped prefix must too.
        MatchOptions capped = opts;
        capped.max_matches = 3;
        EXPECT_EQ(Vf2Matcher::FindMatches(pattern, target, capped),
                  Vf2ReferenceMatcher::FindMatches(pattern, target, capped));
      }
    }
  }
}

TEST_P(MatchEquivalenceTest, CacheAgreesWithReference) {
  Rng rng(GetParam() + 1000);
  MatchCache cache;
  for (bool directed : {false, true}) {
    Graph target = RandomTarget(rng, directed, 9, 0.3, 3, 2);
    Graph pattern = SampleConnectedPattern(rng, target, 3);
    for (MatchSemantics sem :
         {MatchSemantics::kInduced, MatchSemantics::kSubgraph}) {
      MatchOptions opts;
      opts.semantics = sem;
      bool ref_has = Vf2ReferenceMatcher::HasMatch(pattern, target, opts);
      size_t ref_count =
          Vf2ReferenceMatcher::FindMatches(pattern, target, opts).size();
      // Cold (miss + store) and warm (hit) must both agree.
      EXPECT_EQ(cache.HasMatch(pattern, target, opts), ref_has);
      EXPECT_EQ(cache.HasMatch(pattern, target, opts), ref_has);
      EXPECT_EQ(cache.CountMatches(pattern, target, opts), ref_count);
      EXPECT_EQ(cache.CountMatches(pattern, target, opts), ref_count);

      // Capped counts are keyed by the cap and clamp exactly.
      MatchOptions capped = opts;
      capped.max_matches = 2;
      size_t want = std::min<size_t>(2, ref_count);
      EXPECT_EQ(cache.CountMatches(pattern, target, capped), want);
      EXPECT_EQ(cache.CountMatches(pattern, target, capped), want);

      // Coverage round-trips through the cached representation.
      CoverageResult direct = ComputeCoverage({pattern}, target, opts);
      for (int round = 0; round < 2; ++round) {
        CoverageResult cached = cache.Coverage(pattern, target, opts);
        EXPECT_EQ(cached.num_matches, direct.num_matches);
        EXPECT_EQ(cached.covered_nodes.ToVector(),
                  direct.covered_nodes.ToVector());
        EXPECT_EQ(cached.covered_edges.ToVector(),
                  direct.covered_edges.ToVector());
      }
    }
  }
  EXPECT_GT(cache.size(), 0u);
}

bool IsPrefixOf(const std::vector<Match>& prefix,
                const std::vector<Match>& full) {
  if (prefix.size() > full.size()) return false;
  return std::equal(prefix.begin(), prefix.end(), full.begin());
}

// The budgeted contract from vf2.h: the indexed search tree is a pruned
// subtree of the reference's with the same DFS order, so for any step
// budget the reference delivers a prefix of what the indexed matcher
// delivers, and both deliver prefixes of the unbudgeted sequence. This
// covers kInduced specifically, where the reference spends steps on
// degree-deficient candidates the indexed path rejects up front.
TEST_P(MatchEquivalenceTest, BudgetedSearchesKeepThePrefixRelation) {
  Rng rng(GetParam() + 2000);
  for (bool directed : {false, true}) {
    Graph target = RandomTarget(rng, directed, 10, directed ? 0.22 : 0.3,
                                /*num_types=*/3, /*num_edge_types=*/2);
    for (size_t psize : {2u, 3u, 4u}) {
      Graph pattern = SampleConnectedPattern(rng, target, psize);
      for (MatchSemantics sem :
           {MatchSemantics::kInduced, MatchSemantics::kSubgraph}) {
        MatchOptions opts;
        opts.semantics = sem;
        std::vector<Match> full =
            Vf2ReferenceMatcher::FindMatches(pattern, target, opts);
        for (size_t budget : {1u, 3u, 8u, 25u, 200u}) {
          MatchOptions budgeted = opts;
          budgeted.max_steps = budget;
          std::vector<Match> fast =
              Vf2Matcher::FindMatches(pattern, target, budgeted);
          std::vector<Match> ref =
              Vf2ReferenceMatcher::FindMatches(pattern, target, budgeted);
          EXPECT_TRUE(IsPrefixOf(ref, fast))
              << "reference outran the indexed matcher: directed="
              << directed << " psize=" << psize
              << " semantics=" << static_cast<int>(sem)
              << " budget=" << budget;
          EXPECT_TRUE(IsPrefixOf(fast, full))
              << "truncated run delivered non-prefix matches: directed="
              << directed << " psize=" << psize
              << " semantics=" << static_cast<int>(sem)
              << " budget=" << budget;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatchEquivalenceTest,
                         ::testing::Range<uint64_t>(1, 13));

TEST(MatchCacheTest, IsomorphicUndirectedPatternsShareEntries) {
  // Two relabelings of the same undirected path pattern must map to one
  // canonical cache entry.
  Graph p1;
  p1.AddNode(0);
  p1.AddNode(1);
  ASSERT_TRUE(p1.AddEdge(0, 1).ok());
  Graph p2;
  p2.AddNode(1);
  p2.AddNode(0);
  ASSERT_TRUE(p2.AddEdge(0, 1).ok());
  Graph target;
  target.AddNode(0);
  target.AddNode(1);
  target.AddNode(0);
  ASSERT_TRUE(target.AddEdge(0, 1).ok());
  ASSERT_TRUE(target.AddEdge(1, 2).ok());

  MatchCache cache;
  MatchOptions opts;
  EXPECT_TRUE(cache.HasMatch(p1, target, opts));
  size_t after_first = cache.size();
  EXPECT_TRUE(cache.HasMatch(p2, target, opts));
  EXPECT_EQ(cache.size(), after_first) << "isomorphic pattern missed the "
                                          "shared canonical entry";

  // Directed codes carry both arcs of every pair, so a relabelled directed
  // pattern shares its entry too.
  Graph d1(/*directed=*/true);
  d1.AddNode(0);
  d1.AddNode(1);
  ASSERT_TRUE(d1.AddEdge(0, 1).ok());
  Graph d2(/*directed=*/true);
  d2.AddNode(1);
  d2.AddNode(0);
  ASSERT_TRUE(d2.AddEdge(1, 0).ok());
  Graph dtarget(/*directed=*/true);
  dtarget.AddNode(0);
  dtarget.AddNode(1);
  ASSERT_TRUE(dtarget.AddEdge(0, 1).ok());
  EXPECT_TRUE(cache.HasMatch(d1, dtarget, opts));
  after_first = cache.size();
  EXPECT_TRUE(cache.HasMatch(d2, dtarget, opts));
  EXPECT_EQ(cache.size(), after_first) << "relabelled directed pattern "
                                          "missed the shared entry";

  // Past 6 nodes a pattern is keyed by content: a relabelled 7-node path
  // gets an entry of its own.
  Graph path1;
  Graph path2;
  Graph long_target;
  for (NodeType t = 0; t < 7; ++t) {
    path1.AddNode(t);
    path2.AddNode(6 - t);
    long_target.AddNode(t);
  }
  for (NodeId v = 0; v + 1 < 7; ++v) {
    ASSERT_TRUE(path1.AddEdge(v, v + 1).ok());
    ASSERT_TRUE(path2.AddEdge(v, v + 1).ok());
    ASSERT_TRUE(long_target.AddEdge(v, v + 1).ok());
  }
  EXPECT_TRUE(cache.HasMatch(path1, long_target, opts));
  after_first = cache.size();
  EXPECT_TRUE(cache.HasMatch(path2, long_target, opts));
  EXPECT_EQ(cache.size(), after_first + 1);

  // A chain, an in-star and an out-star on three same-type nodes are not
  // isomorphic: each keeps its own entry and the matcher's answer.
  auto three = [](std::initializer_list<std::pair<NodeId, NodeId>> arcs) {
    Graph g(/*directed=*/true);
    for (int i = 0; i < 3; ++i) g.AddNode(0);
    for (const auto& [u, v] : arcs) EXPECT_TRUE(g.AddEdge(u, v).ok());
    return g;
  };
  const Graph chain = three({{0, 1}, {1, 2}});
  const Graph in_star = three({{0, 2}, {1, 2}});
  const Graph out_star = three({{2, 0}, {2, 1}});
  MatchOptions loose;
  loose.semantics = MatchSemantics::kSubgraph;
  for (const Graph& t : {chain, in_star, out_star}) {
    for (const Graph& p : {chain, in_star, out_star}) {
      EXPECT_EQ(cache.HasMatch(p, t, loose), Vf2Matcher::HasMatch(p, t, loose));
      EXPECT_EQ(cache.CountMatches(p, t, loose),
                Vf2Matcher::FindMatches(p, t, loose).size());
    }
  }
}

TEST(MatchCacheTest, InvalidateTargetDropsOnlyThatTarget) {
  Graph pattern;
  pattern.AddNode(0);
  pattern.AddNode(0);
  ASSERT_TRUE(pattern.AddEdge(0, 1).ok());

  Graph t1;
  t1.AddNode(0);
  t1.AddNode(0);
  ASSERT_TRUE(t1.AddEdge(0, 1).ok());
  Graph t2;
  t2.AddNode(0);
  t2.AddNode(0);
  t2.AddNode(0);
  ASSERT_TRUE(t2.AddEdge(0, 1).ok());
  ASSERT_TRUE(t2.AddEdge(1, 2).ok());

  MatchCache cache;
  MatchOptions opts;
  (void)cache.HasMatch(pattern, t1, opts);
  (void)cache.HasMatch(pattern, t2, opts);
  ASSERT_EQ(cache.size(), 2u);

  cache.InvalidateTarget(t1);
  EXPECT_EQ(cache.size(), 1u);
  // The surviving entry still answers for t2; t1 repopulates on demand.
  EXPECT_TRUE(cache.HasMatch(pattern, t2, opts));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.HasMatch(pattern, t1, opts));
  EXPECT_EQ(cache.size(), 2u);

  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(MatchCacheTest, BudgetedSearchesBypassTheCache) {
  Graph pattern;
  pattern.AddNode(0);
  pattern.AddNode(0);
  ASSERT_TRUE(pattern.AddEdge(0, 1).ok());
  Graph target;
  target.AddNode(0);
  target.AddNode(0);
  ASSERT_TRUE(target.AddEdge(0, 1).ok());

  MatchCache cache;
  MatchOptions budgeted;
  budgeted.max_steps = 5;
  (void)cache.HasMatch(pattern, target, budgeted);
  EXPECT_EQ(cache.size(), 0u) << "a truncated search is not a cacheable fact";
}

TEST(MatchCacheTest, CountersFlowIntoObsRegistry) {
  Graph pattern;
  pattern.AddNode(0);
  pattern.AddNode(0);
  ASSERT_TRUE(pattern.AddEdge(0, 1).ok());
  Graph target;
  target.AddNode(0);
  target.AddNode(0);
  target.AddNode(0);
  ASSERT_TRUE(target.AddEdge(0, 1).ok());
  ASSERT_TRUE(target.AddEdge(1, 2).ok());

  auto& hits = obs::Registry::Global().GetCounter("match_cache.hits");
  auto& misses = obs::Registry::Global().GetCounter("match_cache.misses");
  uint64_t hits_before = hits.Value();
  uint64_t misses_before = misses.Value();

  MatchCache cache;
  MatchOptions opts;
  (void)cache.HasMatch(pattern, target, opts);
  (void)cache.HasMatch(pattern, target, opts);

  EXPECT_GE(misses.Value(), misses_before + 1);
  EXPECT_GE(hits.Value(), hits_before + 1);
}

}  // namespace
}  // namespace gvex
