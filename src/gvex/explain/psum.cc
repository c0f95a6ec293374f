#include "gvex/explain/psum.h"

#include <algorithm>

#include "gvex/common/bitset.h"
#include "gvex/common/thread_pool.h"
#include "gvex/matching/match_cache.h"
#include "gvex/matching/vf2.h"
#include "gvex/obs/obs.h"

namespace gvex {
namespace {

// Floor under w(P) in both greedy covers' ratios: avoids division by ~0
// weights.
constexpr double kWeightFloor = 1e-2;

// Each pattern's node and edge coverage across all subgraphs, in flat index
// spaces that number the subgraphs' nodes (and edges) one after another.
struct CoverTable {
  struct Row {
    DynamicBitset nodes;
    DynamicBitset edges;
    double weight = 1.0;  // w(P) = 1 - |P_Es| / |Es|
  };
  std::vector<size_t> node_base;  // first flat node index of each subgraph
  size_t total_nodes = 0;
  size_t total_edges = 0;
  std::vector<Row> rows;  // one per pattern

  // 1 - |covered| / |Es|: the edge loss of Fig. 8(c,d), and w(P) when
  // `covered` is one pattern's edges.
  double EdgeLoss(const DynamicBitset& covered) const {
    return total_edges == 0
               ? 0.0
               : 1.0 - static_cast<double>(covered.Count()) /
                           static_cast<double>(total_edges);
  }
};

// The table of `num_patterns` patterns, pattern(i) being the i-th. Each
// cell is a full VF2 enumeration, the hot loop of both covers. Cells hit
// the MatchCache (the same pairs recur across labels and stream rounds) and
// patterns fan out over the shared pool: each iteration writes only its own
// row, and the greedy selection stays serial and deterministic.
template <typename PatternAt>
CoverTable BuildCoverTable(size_t num_patterns, PatternAt pattern,
                           const std::vector<Graph>& subgraphs,
                           const MatchOptions& match) {
  CoverTable table;
  table.node_base.resize(subgraphs.size());
  std::vector<size_t> edge_base(subgraphs.size());
  for (size_t i = 0; i < subgraphs.size(); ++i) {
    table.node_base[i] = table.total_nodes;
    edge_base[i] = table.total_edges;
    table.total_nodes += subgraphs[i].num_nodes();
    table.total_edges += subgraphs[i].num_edges();
  }
  table.rows.resize(num_patterns);
  ThreadPool::Shared().ParallelFor(num_patterns, [&](size_t pi) {
    CoverTable::Row& row = table.rows[pi];
    row.nodes = DynamicBitset(table.total_nodes);
    row.edges = DynamicBitset(table.total_edges);
    for (size_t gi = 0; gi < subgraphs.size(); ++gi) {
      CoverageResult local =
          MatchCache::Global().Coverage(pattern(pi), subgraphs[gi], match);
      for (size_t v : local.covered_nodes.ToVector()) {
        row.nodes.Set(table.node_base[gi] + v);
      }
      for (size_t e : local.covered_edges.ToVector()) {
        row.edges.Set(edge_base[gi] + e);
      }
    }
    row.weight = table.EdgeLoss(row.edges);
  });
  return table;
}

}  // namespace

PsumResult Psum(const std::vector<Graph>& subgraphs,
                const Configuration& config) {
  PsumResult result;
  if (subgraphs.empty()) {
    result.full_node_coverage = true;
    return result;
  }
  GVEX_SPAN("psum.summarize");
  GVEX_COUNTER_INC("psum.calls");

  // Mine candidates and compute their global coverage. Structural
  // patterns only (>= 2 nodes): single-type singletons trivially dominate
  // node-coverage-per-weight yet explain nothing; they re-enter solely as
  // the mop-up fallback below.
  PgenOptions pgen = config.pgen;
  pgen.min_pattern_nodes = std::max<size_t>(pgen.min_pattern_nodes, 2);
  std::vector<PatternCandidate> candidates =
      GeneratePatternCandidates(subgraphs, pgen);
  const CoverTable table = BuildCoverTable(
      candidates.size(),
      [&](size_t ci) -> const Graph& { return candidates[ci].pattern; },
      subgraphs, config.match);

  // Greedy weighted set cover: maximize newly covered nodes per unit
  // weight until all nodes are covered or candidates are exhausted.
  DynamicBitset covered_nodes(table.total_nodes);
  DynamicBitset covered_edges(table.total_edges);
  std::vector<bool> selected(candidates.size(), false);
  while (covered_nodes.Count() < table.total_nodes) {
    size_t best = static_cast<size_t>(-1);
    double best_ratio = 0.0;
    for (size_t ci = 0; ci < candidates.size(); ++ci) {
      if (selected[ci]) continue;
      const CoverTable::Row& row = table.rows[ci];
      size_t gain = covered_nodes.MarginalCount(row.nodes);
      if (gain == 0) continue;
      // Weighted-set-cover greedy on nodes; newly covered edges join the
      // numerator so that at equal node gain the pattern missing fewer
      // edges wins (the w(P) objective of Lemma 4.3).
      size_t edge_gain = covered_edges.MarginalCount(row.edges);
      double ratio = static_cast<double>(gain + edge_gain) /
                     (row.weight + kWeightFloor);
      if (ratio > best_ratio) {
        best_ratio = ratio;
        best = ci;
      }
    }
    if (best == static_cast<size_t>(-1)) break;  // nothing useful left
    selected[best] = true;
    covered_nodes.UnionWith(table.rows[best].nodes);
    covered_edges.UnionWith(table.rows[best].edges);
    result.patterns.push_back(candidates[best].pattern);
  }

  // Mop-up: any node the mined candidates missed (possible when PGen
  // truncates) gets its singleton type pattern, preserving the view
  // invariant that P^l covers all of G_s^l.
  if (covered_nodes.Count() < table.total_nodes) {
    std::vector<NodeType> singleton_types;
    for (size_t gi = 0; gi < subgraphs.size(); ++gi) {
      for (NodeId v = 0; v < subgraphs[gi].num_nodes(); ++v) {
        if (covered_nodes.Test(table.node_base[gi] + v)) continue;
        NodeType t = subgraphs[gi].node_type(v);
        if (std::find(singleton_types.begin(), singleton_types.end(), t) ==
            singleton_types.end()) {
          singleton_types.push_back(t);
          Graph p;
          p.AddNode(t);
          result.patterns.push_back(std::move(p));
        }
        covered_nodes.Set(table.node_base[gi] + v);
      }
    }
  }

  result.full_node_coverage = covered_nodes.Count() == table.total_nodes;
  result.edge_loss = table.EdgeLoss(covered_edges);
  return result;
}

PatternReduction ReducePatterns(const std::vector<Graph>& patterns,
                                const std::vector<Graph>& subgraphs,
                                const Configuration& config) {
  PatternReduction result;
  if (subgraphs.empty()) return result;
  const CoverTable table = BuildCoverTable(
      patterns.size(), [&](size_t pi) -> const Graph& { return patterns[pi]; },
      subgraphs, config.match);

  DynamicBitset covered_nodes(table.total_nodes);
  DynamicBitset covered_edges(table.total_edges);
  std::vector<bool> chosen(patterns.size(), false);
  for (;;) {
    size_t best = static_cast<size_t>(-1);
    double best_ratio = 0.0;
    for (size_t pi = 0; pi < patterns.size(); ++pi) {
      if (chosen[pi]) continue;
      // Greedy cover over nodes AND edges (Lemma 4.3's objective wants
      // full node coverage with minimal edge misses, so patterns that
      // only add edge coverage still earn selection).
      const CoverTable::Row& row = table.rows[pi];
      size_t gain = covered_nodes.MarginalCount(row.nodes);
      size_t edge_gain = covered_edges.MarginalCount(row.edges);
      if (gain + edge_gain == 0) continue;
      double ratio = static_cast<double>(gain + edge_gain) /
                     (row.weight + kWeightFloor);
      if (ratio > best_ratio) {
        best_ratio = ratio;
        best = pi;
      }
    }
    if (best == static_cast<size_t>(-1)) break;
    chosen[best] = true;
    covered_nodes.UnionWith(table.rows[best].nodes);
    covered_edges.UnionWith(table.rows[best].edges);
    result.patterns.push_back(patterns[best]);
  }
  result.edge_loss = table.EdgeLoss(covered_edges);
  return result;
}

}  // namespace gvex
