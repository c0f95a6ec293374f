// Oracles for the code-only mining path. The subset form of CanonicalCode
// and the code-tallying PGen must agree with the path that builds a graph
// per enumerated subset: ReferenceCanonicalCode is the permutation-string
// canonicalization the library used before (it still defines every
// undirected code's bytes), and the Reference*Candidates functions build
// each subset, canonicalize it with the library's whole-graph
// CanonicalCode, and rank the candidates as PGen always has.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <numeric>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "gvex/common/rng.h"
#include "gvex/datasets/datasets.h"
#include "gvex/mining/canonical.h"
#include "gvex/mining/pgen.h"

namespace gvex {
namespace {

// ---- oracles -----------------------------------------------------------

std::string EncodeUnderPermutation(const Graph& g,
                                   const std::vector<NodeId>& perm) {
  const size_t n = g.num_nodes();
  std::string code;
  for (NodeId v : perm) {
    code += std::to_string(g.node_type(v));
    code += ',';
  }
  code += '|';
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (g.HasEdge(perm[i], perm[j])) {
        code += std::to_string(g.GetEdgeType(perm[i], perm[j]) + 1);
      } else {
        code += '0';
      }
      code += ';';
    }
  }
  return code;
}

std::string ReferenceCanonicalCode(const Graph& g) {
  const size_t n = g.num_nodes();
  if (n == 0) return "empty";
  std::vector<NodeId> base(n);
  std::iota(base.begin(), base.end(), 0);
  auto cls = [&](NodeId v) {
    return std::make_pair(g.node_type(v), g.degree(v));
  };
  std::sort(base.begin(), base.end(),
            [&](NodeId a, NodeId b) { return cls(a) < cls(b); });
  std::string best;
  std::vector<NodeId> perm = base;
  std::vector<std::pair<size_t, size_t>> classes;
  size_t start = 0;
  for (size_t i = 1; i <= n; ++i) {
    if (i == n || cls(base[i]) != cls(base[start])) {
      classes.emplace_back(start, i);
      start = i;
    }
  }
  std::function<void(size_t)> recurse = [&](size_t ci) {
    if (ci == classes.size()) {
      std::string code = EncodeUnderPermutation(g, perm);
      if (best.empty() || code < best) best = std::move(code);
      return;
    }
    auto [lo, hi] = classes[ci];
    std::vector<NodeId> segment(perm.begin() + lo, perm.begin() + hi);
    std::sort(segment.begin(), segment.end());
    do {
      std::copy(segment.begin(), segment.end(), perm.begin() + lo);
      recurse(ci + 1);
    } while (std::next_permutation(segment.begin(), segment.end()));
  };
  recurse(0);
  return best;
}

struct ReferenceRun {
  std::vector<PatternCandidate> candidates;
  size_t distinct_codes = 0;  // before the top-max_candidates cut
  bool capped = false;        // some graph hit max_enumerated_per_graph
};

ReferenceRun ReferencePatternCandidates(const std::vector<Graph>& subgraphs,
                                        const PgenOptions& options) {
  struct Entry {
    PatternCandidate candidate;
    std::set<size_t> sources;
  };
  std::unordered_map<std::string, Entry> by_code;
  ReferenceRun run;
  for (size_t gi = 0; gi < subgraphs.size(); ++gi) {
    const Graph& g = subgraphs[gi];
    const bool complete = EnumerateConnectedSubgraphs(
        g, options.min_pattern_nodes, options.max_pattern_nodes,
        options.max_enumerated_per_graph,
        [&](const std::vector<NodeId>& nodes) {
          Graph piece = ToPattern(g.InducedSubgraph(nodes));
          std::string code = CanonicalCode(piece);
          auto it = by_code.find(code);
          if (it == by_code.end()) {
            Entry e;
            e.candidate.pattern = std::move(piece);
            e.candidate.canonical = code;
            it = by_code.emplace(std::move(code), std::move(e)).first;
          }
          it->second.candidate.embeddings += 1;
          it->second.sources.insert(gi);
          return true;
        });
    run.capped = run.capped || !complete;
  }
  for (auto& [code, entry] : by_code) {
    PatternCandidate c = std::move(entry.candidate);
    c.support = entry.sources.size();
    const double size_cost = static_cast<double>(c.pattern.num_nodes() +
                                                 c.pattern.num_edges());
    c.mdl_score =
        (static_cast<double>(c.embeddings) - 1.0) * size_cost - size_cost;
    run.candidates.push_back(std::move(c));
  }
  run.distinct_codes = run.candidates.size();
  std::sort(run.candidates.begin(), run.candidates.end(),
            [](const PatternCandidate& a, const PatternCandidate& b) {
              if (a.mdl_score != b.mdl_score) return a.mdl_score > b.mdl_score;
              if (a.embeddings != b.embeddings) {
                return a.embeddings > b.embeddings;
              }
              return a.canonical < b.canonical;
            });
  if (options.max_candidates > 0 &&
      run.candidates.size() > options.max_candidates) {
    run.candidates.resize(options.max_candidates);
  }
  return run;
}

ReferenceRun ReferenceLocalCandidates(const Graph& g, NodeId v, unsigned hops,
                                      const PgenOptions& options) {
  return ReferencePatternCandidates(
      {g.InducedSubgraph(g.KHopNeighborhood(v, hops))}, options);
}

// ---- helpers -----------------------------------------------------------

// Everything a pattern is made of, in storage order.
std::string PatternBytes(const Graph& g) {
  std::string s = g.directed() ? "D" : "U";
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    s += " " + std::to_string(g.node_type(v)) + ":";
    for (const Neighbor& nb : g.neighbors(v)) {
      s += std::to_string(nb.node) + "/" + std::to_string(nb.edge_type) + ",";
    }
  }
  return s;
}

void ExpectSameCandidates(const std::vector<PatternCandidate>& got,
                          const std::vector<PatternCandidate>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("rank " + std::to_string(i));
    EXPECT_EQ(got[i].canonical, want[i].canonical);
    EXPECT_EQ(PatternBytes(got[i].pattern), PatternBytes(want[i].pattern));
    EXPECT_EQ(got[i].support, want[i].support);
    EXPECT_EQ(got[i].embeddings, want[i].embeddings);
    EXPECT_EQ(got[i].mdl_score, want[i].mdl_score);
  }
}

std::vector<std::string> Codes(const std::vector<PatternCandidate>& cands) {
  std::vector<std::string> codes;
  for (const auto& c : cands) codes.push_back(c.canonical);
  return codes;
}

// Random undirected graph; with one node type and p near 0 or 1 most
// nodes share a (type, degree) class.
Graph RandomGraph(Rng* rng, size_t n, size_t num_types, size_t num_edge_types,
                  double p) {
  Graph g;
  for (size_t i = 0; i < n; ++i) {
    g.AddNode(static_cast<NodeType>(rng->NextBounded(num_types)));
  }
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng->NextDouble() < p) {
        EXPECT_TRUE(g.AddEdge(u, v, static_cast<EdgeType>(
                                        rng->NextBounded(num_edge_types)))
                        .ok());
      }
    }
  }
  return g;
}

// `g` placed at shuffled ids of a larger host whose extra nodes are wired
// to it, so host degrees differ from the degrees inside g. `at` receives
// each g node's host id.
Graph EmbedInHost(Rng* rng, const Graph& g, std::vector<NodeId>* at) {
  const size_t n = g.num_nodes() + 1 + rng->NextBounded(6);
  std::vector<NodeId> ids(n);
  std::iota(ids.begin(), ids.end(), 0);
  rng->Shuffle(&ids);
  at->assign(ids.begin(), ids.begin() + g.num_nodes());
  std::vector<NodeType> types(n);
  for (size_t k = 0; k < n; ++k) {
    types[ids[k]] = k < g.num_nodes()
                        ? g.node_type(static_cast<NodeId>(k))
                        : static_cast<NodeType>(rng->NextBounded(3));
  }
  Graph host;
  for (NodeType t : types) host.AddNode(t);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const Neighbor& nb : g.neighbors(u)) {
      if (nb.node > u) {
        EXPECT_TRUE(host.AddEdge((*at)[u], (*at)[nb.node], nb.edge_type).ok());
      }
    }
  }
  for (size_t k = g.num_nodes(); k < n; ++k) {
    for (NodeId h = 0; h < n; ++h) {
      if (h != ids[k] && !host.HasEdge(ids[k], h) && rng->NextDouble() < 0.5) {
        EXPECT_TRUE(host.AddEdge(ids[k], h).ok());
      }
    }
  }
  return host;
}

// ---- codes -------------------------------------------------------------

TEST(CanonicalCodeOracleTest, BothFormsMatchTheReferenceOnRandomGraphs) {
  Rng rng(20231);
  for (int trial = 0; trial < 600; ++trial) {
    const size_t n = 1 + rng.NextBounded(8);
    const size_t types = 1 + rng.NextBounded(3);
    const size_t edge_types = 1 + rng.NextBounded(2);
    const double p = trial % 3 == 0 ? 0.9 : (trial % 3 == 1 ? 0.15 : 0.5);
    const Graph g = RandomGraph(&rng, n, types, edge_types, p);
    const std::string want = ReferenceCanonicalCode(g);
    EXPECT_EQ(CanonicalCode(g), want) << g.DebugString();
    std::vector<NodeId> all(n);
    std::iota(all.begin(), all.end(), 0);
    EXPECT_EQ(CanonicalCode(g, all), want) << g.DebugString();
    std::vector<NodeId> at;
    const Graph host = EmbedInHost(&rng, g, &at);
    EXPECT_EQ(CanonicalCode(host, at), want) << g.DebugString();
    std::sort(at.begin(), at.end());
    EXPECT_EQ(CanonicalCode(host, at), want) << g.DebugString();
  }
}

TEST(CanonicalCodeOracleTest, BothFormsMatchTheReferenceOnDatasetSubsets) {
  const struct {
    const char* name;
    size_t graphs;
  } kSets[] = {{"MUT", 6}, {"ENZ", 6}, {"RED", 2}, {"PCQ", 6}};
  for (const auto& set : kSets) {
    SCOPED_TRACE(set.name);
    const GraphDatabase db =
        datasets::MakeByName(set.name, 0.1, 3).ValueOrDie();
    size_t subsets = 0;
    for (size_t gi = 0; gi < std::min(set.graphs, db.size()); ++gi) {
      const Graph& g = db.graph(gi);
      EnumerateConnectedSubgraphs(
          g, 1, 4, 0, [&](const std::vector<NodeId>& nodes) {
            const Graph piece = ToPattern(g.InducedSubgraph(nodes));
            const std::string want = ReferenceCanonicalCode(piece);
            EXPECT_EQ(CanonicalCode(g, nodes), want);
            EXPECT_EQ(CanonicalCode(piece), want);
            ++subsets;
            return !::testing::Test::HasFailure();
          });
    }
    EXPECT_GT(subsets, 100u);
  }
}

// ---- the stream's local screen -----------------------------------------

TEST(LocalPatternCodesOracleTest, EqualsTheMaterializingPathOnEveryNode) {
  PgenOptions screen;  // the stream's case (b) bounds
  screen.max_pattern_nodes = 3;
  screen.max_candidates = 16;
  screen.max_enumerated_per_graph = 300;
  const unsigned hops = 2;
  size_t capped = 0;
  size_t over_cut = 0;
  for (const char* name : {"MUT", "ENZ", "RED", "SYN", "PCQ", "MAL"}) {
    SCOPED_TRACE(name);
    const GraphDatabase db = datasets::MakeByName(name, 0.1, 5).ValueOrDie();
    for (size_t gi = 0; gi < std::min<size_t>(db.size(), 3); ++gi) {
      const Graph& g = db.graph(gi);
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        const ReferenceRun want = ReferenceLocalCandidates(g, v, hops, screen);
        ASSERT_EQ(LocalPatternCodes(g, v, hops, screen),
                  Codes(want.candidates))
            << "graph " << gi << " node " << v;
        capped += want.capped;
        over_cut += want.distinct_codes > screen.max_candidates;
      }
    }
  }
  // The cap and the top-16 cut both decided some screens.
  EXPECT_GT(capped, 0u);
  EXPECT_GT(over_cut, 0u);
}

TEST(LocalPatternCodesOracleTest, LocalCandidatesEqualTheMaterializingPath) {
  for (const char* name : {"MUT", "RED", "MAL"}) {
    SCOPED_TRACE(name);
    const GraphDatabase db = datasets::MakeByName(name, 0.1, 6).ValueOrDie();
    const Graph& g = db.graph(0);
    const NodeId step = static_cast<NodeId>(1 + g.num_nodes() / 10);
    for (NodeId v = 0; v < g.num_nodes(); v += step) {
      SCOPED_TRACE("node " + std::to_string(v));
      ExpectSameCandidates(GenerateLocalPatternCandidates(g, v, 2),
                           ReferenceLocalCandidates(g, v, 2, {}).candidates);
    }
  }
}

// ---- PGen --------------------------------------------------------------

TEST(PgenOracleTest, CandidatesEqualTheMaterializingPath) {
  PgenOptions capped;
  capped.max_pattern_nodes = 4;
  capped.max_candidates = 10;
  capped.max_enumerated_per_graph = 150;
  PgenOptions wide;
  wide.max_candidates = 0;
  wide.max_enumerated_per_graph = 2000;
  for (const char* name : {"MUT", "ENZ", "RED", "PCQ", "MAL"}) {
    SCOPED_TRACE(name);
    const GraphDatabase db = datasets::MakeByName(name, 0.1, 7).ValueOrDie();
    // Explanation-sized inputs: one 2-hop neighborhood per graph.
    std::vector<Graph> subgraphs;
    for (size_t gi = 0; gi < std::min<size_t>(db.size(), 8); ++gi) {
      const Graph& g = db.graph(gi);
      subgraphs.push_back(g.InducedSubgraph(
          g.KHopNeighborhood(static_cast<NodeId>(gi % g.num_nodes()), 2)));
    }
    for (const PgenOptions& options : {PgenOptions{}, capped, wide}) {
      ExpectSameCandidates(GeneratePatternCandidates(subgraphs, options),
                           ReferencePatternCandidates(subgraphs, options)
                               .candidates);
    }
  }
}

}  // namespace
}  // namespace gvex
