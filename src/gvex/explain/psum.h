// Psum: the summarize phase of §4 — compute a set of patterns P^l that
// covers every node of the explanation subgraphs while minimizing the total
// edge-miss weight w(P) = 1 - |P_Es| / |Es| (a greedy weighted set cover,
// H_{u_l}-approximate per Lemma 4.3). ReducePatterns is the stream's
// counterpart (Procedure 5): the same cover over a pattern set it already
// holds.
#pragma once

#include <vector>

#include "gvex/explain/config.h"
#include "gvex/graph/graph.h"
#include "gvex/mining/pgen.h"

namespace gvex {

struct PsumResult {
  std::vector<Graph> patterns;
  /// Fraction of subgraph edges not covered by any selected pattern
  /// ("edge loss", the quantity of Fig. 8(c,d)).
  double edge_loss = 0.0;
  /// Total node-coverage sanity: true iff every subgraph node is covered.
  bool full_node_coverage = false;
};

/// Summarize `subgraphs` into a covering pattern set.
///
/// Candidates come from PGen; any node that no mined candidate covers is
/// mopped up by its singleton type pattern, so full node coverage always
/// holds on return (the defining property of a graph view, §2.1).
PsumResult Psum(const std::vector<Graph>& subgraphs,
                const Configuration& config);

/// Reduce a pattern set to a coverage-minimal subset over `subgraphs`
/// (greedy weighted set cover over the *given* patterns; full node
/// coverage is preserved). Returns the reduced set and the edge loss.
struct PatternReduction {
  std::vector<Graph> patterns;
  double edge_loss = 0.0;
};
PatternReduction ReducePatterns(const std::vector<Graph>& patterns,
                                const std::vector<Graph>& subgraphs,
                                const Configuration& config);

}  // namespace gvex
