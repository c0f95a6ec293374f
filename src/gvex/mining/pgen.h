// PGen: the pattern-candidate generator of §4.
//
// Enumerates connected node-induced subgraphs of the explanation subgraphs
// (ESU / FANMOD-style, each connected node set visited exactly once),
// deduplicates them up to isomorphism via canonical codes, counts support
// and embeddings, and ranks candidates by an MDL-style compression gain
// — patterns that re-occur often and carry more structure rank higher.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "gvex/graph/graph.h"

namespace gvex {

struct PgenOptions {
  size_t min_pattern_nodes = 1;
  size_t max_pattern_nodes = 5;
  /// Keep at most this many top-ranked candidates (0 = all).
  size_t max_candidates = 64;
  /// Abort enumeration within one source graph beyond this many connected
  /// subgraphs (guards dense pathological inputs).
  size_t max_enumerated_per_graph = 20000;
};

/// \brief A mined pattern with its occurrence statistics.
struct PatternCandidate {
  Graph pattern;            // types + edges only, no features
  std::string canonical;    // canonical code (dedup key)
  size_t support = 0;       // #input graphs containing >= 1 embedding
  size_t embeddings = 0;    // total embeddings across inputs
  double mdl_score = 0.0;   // compression gain; higher is better
};

/// Enumerate every connected node-induced subgraph of `g` with size in
/// [min_nodes, max_nodes], invoking `cb` with the (sorted) node set.
/// Returns false if the per-graph enumeration cap was hit.
bool EnumerateConnectedSubgraphs(
    const Graph& g, size_t min_nodes, size_t max_nodes, size_t max_enumerated,
    const std::function<bool(const std::vector<NodeId>&)>& cb);

/// PGen over a set of explanation subgraphs. Candidates are ranked by MDL
/// score, then embeddings (both descending), then code; a code's pattern is
/// its first occurrence in (graph, enumeration) order.
std::vector<PatternCandidate> GeneratePatternCandidates(
    const std::vector<Graph>& subgraphs, const PgenOptions& options = {});

/// IncPGen (§5): pattern candidates from the r-hop neighborhood of node `v`
/// within `g` — the streaming algorithm's localized mining step.
std::vector<PatternCandidate> GenerateLocalPatternCandidates(
    const Graph& g, NodeId v, unsigned hops, const PgenOptions& options = {});

/// The canonical codes of GenerateLocalPatternCandidates(g, v, hops,
/// options), in the same order, without building any pattern: the
/// stream's "does v add an unseen pattern?" screen.
std::vector<std::string> LocalPatternCodes(const Graph& g, NodeId v,
                                           unsigned hops,
                                           const PgenOptions& options = {});

/// Strip features from a graph, keeping types and edges (patterns carry
/// no feature payload).
Graph ToPattern(const Graph& g);

}  // namespace gvex
