#include "gvex/mining/pgen.h"

#include <algorithm>
#include <functional>
#include <span>
#include <unordered_map>

#include "gvex/common/arena.h"
#include "gvex/common/thread_pool.h"
#include "gvex/mining/canonical.h"
#include "gvex/obs/obs.h"

namespace gvex {
namespace {

// ESU extension step. `sub` is the current connected set, `ext` the legal
// extension candidates, `root` the anchor enforcing uniqueness (only nodes
// with id > root ever join). The per-step extension-set copies the
// recursion needs come from the thread's arena (one mark/rewind per
// step, so live memory is bounded by the recursion depth, not by the
// number of enumerated subgraphs); the sorted emission buffer is reused
// across emits.
struct EsuDriver {
  const Graph& g;
  Arena& arena;
  size_t min_nodes;
  size_t max_nodes;
  size_t max_enumerated;
  const std::function<bool(const std::vector<NodeId>&)>& cb;
  size_t emitted = 0;
  bool aborted = false;

  // Neighborhood-of-subgraph membership, maintained incrementally.
  std::vector<uint8_t> in_sub{};
  std::vector<uint8_t> in_neighborhood{};
  std::vector<NodeId> sorted_scratch{};

  bool Emit(const std::vector<NodeId>& sub) {
    if (++emitted > max_enumerated) {
      aborted = true;
      return false;
    }
    if (sub.size() >= min_nodes) {
      sorted_scratch.assign(sub.begin(), sub.end());
      std::sort(sorted_scratch.begin(), sorted_scratch.end());
      if (!cb(sorted_scratch)) {
        aborted = true;
        return false;
      }
    }
    return true;
  }

  bool Extend(std::vector<NodeId>* sub, ArenaVector<NodeId>& ext,
              NodeId root) {
    if (!Emit(*sub)) return false;
    if (sub->size() == max_nodes) return true;
    while (!ext.empty()) {
      NodeId w = ext.back();
      ext.pop_back();
      bool keep_going;
      {
        ScopedArenaMark step(&arena);
        // New extension set: old ext plus exclusive neighbors of w.
        ArenaVector<NodeId> next_ext{ArenaAllocator<NodeId>(&arena)};
        next_ext.reserve(ext.size() + g.degree(w));
        next_ext.assign(ext.begin(), ext.end());
        ArenaVector<NodeId> newly_flagged{ArenaAllocator<NodeId>(&arena)};
        for (const auto& nb : g.neighbors(w)) {
          NodeId u = nb.node;
          if (u > root && !in_sub[u] && !in_neighborhood[u]) {
            next_ext.push_back(u);
            in_neighborhood[u] = true;
            newly_flagged.push_back(u);
          }
        }
        sub->push_back(w);
        in_sub[w] = true;
        keep_going = Extend(sub, next_ext, root);
        in_sub[w] = false;
        sub->pop_back();
        for (NodeId u : newly_flagged) in_neighborhood[u] = false;
      }
      if (!keep_going) return false;
    }
    return true;
  }
};

}  // namespace

bool EnumerateConnectedSubgraphs(
    const Graph& g, size_t min_nodes, size_t max_nodes, size_t max_enumerated,
    const std::function<bool(const std::vector<NodeId>&)>& cb) {
  if (g.num_nodes() == 0 || max_nodes == 0) return true;
  Arena& arena = arena::ThreadLocal();
  ScopedArenaMark run_mark(&arena);
  EsuDriver driver{g,
                   arena,
                   min_nodes,
                   max_nodes,
                   max_enumerated == 0 ? static_cast<size_t>(-1)
                                       : max_enumerated,
                   cb};
  driver.in_sub.assign(g.num_nodes(), 0);
  driver.in_neighborhood.assign(g.num_nodes(), 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    bool keep_going;
    {
      ScopedArenaMark root_mark(&arena);
      ArenaVector<NodeId> ext{ArenaAllocator<NodeId>(&arena)};
      ArenaVector<NodeId> flagged{ArenaAllocator<NodeId>(&arena)};
      for (const auto& nb : g.neighbors(v)) {
        if (nb.node > v && !driver.in_neighborhood[nb.node]) {
          ext.push_back(nb.node);
          driver.in_neighborhood[nb.node] = true;
          flagged.push_back(nb.node);
        }
      }
      std::vector<NodeId> sub{v};
      driver.in_sub[v] = true;
      keep_going = driver.Extend(&sub, ext, v);
      driver.in_sub[v] = false;
      for (NodeId u : flagged) driver.in_neighborhood[u] = false;
    }
    if (!keep_going) {
      GVEX_COUNTER_ADD("pgen.enumerated", driver.emitted);
      return !driver.aborted;
    }
  }
  GVEX_COUNTER_ADD("pgen.enumerated", driver.emitted);
  return !driver.aborted;
}

Graph ToPattern(const Graph& g) {
  Graph p(g.directed());
  for (NodeId v = 0; v < g.num_nodes(); ++v) p.AddNode(g.node_type(v));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const auto& nb : g.neighbors(u)) {
      if (!g.directed() && nb.node < u) continue;
      Status st = p.AddEdge(u, nb.node, nb.edge_type);
      (void)st;
    }
  }
  return p;
}

namespace {

// One canonical code's occurrences: within one graph while mining, then
// across graphs after the merge.
struct CodeTally {
  size_t support = 1;     // graphs containing the code
  size_t embeddings = 0;  // subsets with the code, over all graphs
  size_t nodes = 0;       // pattern size
  size_t edges = 0;
  size_t graph = 0;       // first occurrence: `nodes` ids at offset `first`
  size_t first = 0;       // of mined[graph].firsts
};

struct MinedGraph {
  std::unordered_map<std::string, CodeTally> by_code;
  std::vector<NodeId> firsts;  // first occurrences' node sets, back to back
};

// Edges of the subgraph `nodes` induce in g, counted as Graph::num_edges
// counts them.
size_t InducedEdges(const Graph& g, std::span<const NodeId> nodes) {
  size_t m = 0;
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (size_t j = i + 1; j < nodes.size(); ++j) {
      m += g.HasEdge(nodes[i], nodes[j]);
      if (g.directed()) m += g.HasEdge(nodes[j], nodes[i]);
    }
  }
  return m;
}

// PGen's enumerate -> tally -> rank: tallies every connected subset of
// each graph by its canonical code, ranks the codes, and calls
// emit(code, tally, mdl_score, first) for the top `max_candidates` in rank
// order. `first` is the code's first occurrence in (graph, ESU) order, a
// node set of graphs[tally.graph].
template <typename Emit>
void MineRankedCodes(std::span<const Graph> graphs, const PgenOptions& options,
                     Emit&& emit) {
  GVEX_SPAN("pgen.generate");
  GVEX_COUNTER_INC("pgen.calls");
  // Per-graph enumeration is independent across graphs, so it fans out over
  // the shared pool into per-graph tallies; the merge below runs serially in
  // ascending graph order, so the first occurrence in that order stays each
  // code's representative.
  std::vector<MinedGraph> mined(graphs.size());
  ThreadPool::Shared().ParallelFor(graphs.size(), [&](size_t gi) {
    const Graph& g = graphs[gi];
    MinedGraph& local = mined[gi];
    EnumerateConnectedSubgraphs(
        g, options.min_pattern_nodes, options.max_pattern_nodes,
        options.max_enumerated_per_graph,
        [&](const std::vector<NodeId>& nodes) {
          auto [it, inserted] =
              local.by_code.try_emplace(CanonicalCode(g, nodes));
          CodeTally& t = it->second;
          if (inserted) {
            t.nodes = nodes.size();
            t.edges = InducedEdges(g, nodes);
            t.graph = gi;
            t.first = local.firsts.size();
            local.firsts.insert(local.firsts.end(), nodes.begin(),
                                nodes.end());
          }
          ++t.embeddings;
          return true;
        });
  });
  if (graphs.empty()) return;
  std::unordered_map<std::string, CodeTally> by_code =
      std::move(mined[0].by_code);
  for (size_t gi = 1; gi < graphs.size(); ++gi) {
    for (const auto& [code, tally] : mined[gi].by_code) {
      auto [it, inserted] = by_code.try_emplace(code, tally);
      if (!inserted) {
        it->second.support += 1;
        it->second.embeddings += tally.embeddings;
      }
    }
  }

  struct Ranked {
    double mdl_score;
    const std::string* code;
    const CodeTally* tally;
  };
  std::vector<Ranked> ranked;
  ranked.reserve(by_code.size());
  for (const auto& [code, tally] : by_code) {
    // MDL-style compression gain: re-encoding (embeddings - 1) occurrences
    // by a pointer to the pattern saves ~(nodes + edges) symbols each,
    // minus the one-time cost of describing the pattern itself.
    const double size_cost = static_cast<double>(tally.nodes + tally.edges);
    ranked.push_back(
        {(static_cast<double>(tally.embeddings) - 1.0) * size_cost - size_cost,
         &code, &tally});
  }
  const size_t keep = options.max_candidates > 0
                          ? std::min(options.max_candidates, ranked.size())
                          : ranked.size();
  std::partial_sort(
      ranked.begin(), ranked.begin() + static_cast<ptrdiff_t>(keep),
      ranked.end(), [](const Ranked& a, const Ranked& b) {
        if (a.mdl_score != b.mdl_score) return a.mdl_score > b.mdl_score;
        if (a.tally->embeddings != b.tally->embeddings) {
          return a.tally->embeddings > b.tally->embeddings;
        }
        return *a.code < *b.code;  // deterministic tie-break
      });
  for (size_t r = 0; r < keep; ++r) {
    const CodeTally& t = *ranked[r].tally;
    emit(*ranked[r].code, t, ranked[r].mdl_score,
         std::span<const NodeId>(mined[t.graph].firsts.data() + t.first,
                                 t.nodes));
  }
}

std::vector<PatternCandidate> MinePatternCandidates(
    std::span<const Graph> graphs, const PgenOptions& options) {
  std::vector<PatternCandidate> out;
  MineRankedCodes(graphs, options,
                  [&](const std::string& code, const CodeTally& t,
                      double mdl_score, std::span<const NodeId> first) {
                    PatternCandidate c;
                    c.pattern = ToPattern(graphs[t.graph].InducedSubgraph(
                        std::vector<NodeId>(first.begin(), first.end())));
                    c.canonical = code;
                    c.support = t.support;
                    c.embeddings = t.embeddings;
                    c.mdl_score = mdl_score;
                    out.push_back(std::move(c));
                  });
  return out;
}

}  // namespace

std::vector<PatternCandidate> GeneratePatternCandidates(
    const std::vector<Graph>& subgraphs, const PgenOptions& options) {
  return MinePatternCandidates(subgraphs, options);
}

std::vector<PatternCandidate> GenerateLocalPatternCandidates(
    const Graph& g, NodeId v, unsigned hops, const PgenOptions& options) {
  const Graph local = g.InducedSubgraph(g.KHopNeighborhood(v, hops));
  return MinePatternCandidates({&local, 1}, options);
}

std::vector<std::string> LocalPatternCodes(const Graph& g, NodeId v,
                                           unsigned hops,
                                           const PgenOptions& options) {
  const Graph local = g.InducedSubgraph(g.KHopNeighborhood(v, hops));
  std::vector<std::string> codes;
  MineRankedCodes({&local, 1}, options,
                  [&](const std::string& code, const CodeTally&, double,
                      std::span<const NodeId>) { codes.push_back(code); });
  return codes;
}

}  // namespace gvex
