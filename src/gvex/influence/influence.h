// Feature-influence analysis (§3.1 of the paper, Eq. 3-6).
//
// Two backends compute the node-to-node influence scores I1(v, u):
//  * kExactJacobian — forward-mode differentiation through the trained GCN
//    with the realized ReLU gates: I1(v,u) = || dX_v^k / dX_u^0 ||_1
//    (entry-wise L1). The faithful-but-expensive definition of Eq. 3; used
//    for small graphs and as the test oracle.
//  * kRandomWalk — I1(v,u) = [S^k]_{vu}, the expected-Jacobian result of
//    Xu et al. (2018) that the paper's implementation note relies on
//    ("sparse matrix multiplication and random walk technique", §6.2).
//    Linear in edges per propagation round.
//
// From I1 the analyzer derives the normalized I2 (Eq. 4), influence sets
// under a threshold θ (Eq. 5), and embedding-ball diversity sets under a
// radius r (Eq. 6), all materialized as bitsets for O(n/64) set algebra in
// the greedy loops.
#pragma once

#include <cstdint>
#include <vector>

#include "gvex/common/bitset.h"
#include "gvex/common/result.h"
#include "gvex/gnn/model.h"
#include "gvex/graph/graph.h"

namespace gvex {

enum class InfluenceBackend {
  kExactJacobian,
  kRandomWalk,
};

struct InfluenceOptions {
  InfluenceBackend backend = InfluenceBackend::kRandomWalk;
  /// Influence threshold θ: v is influenced by u when I2(u,v) >= θ.
  float theta = 0.1f;
  /// Diversity radius r on normalized-Euclidean embedding distance.
  float radius = 0.25f;
  /// Above this node count the exact backend refuses (quadratic cost).
  size_t exact_backend_node_limit = 512;
};

/// \brief Per-graph influence/diversity precomputation.
///
/// Build once per (model, graph); queries are then bitset operations.
class InfluenceAnalyzer {
 public:
  static Result<InfluenceAnalyzer> Build(const GcnClassifier& model,
                                         const Graph& graph,
                                         const InfluenceOptions& options);

  size_t num_nodes() const { return n_; }
  const InfluenceOptions& options() const { return options_; }

  /// Raw influence of u on v (Eq. 3 or its random-walk surrogate).
  float I1(NodeId v, NodeId u) const { return i1_.At(v, u); }

  /// Normalized influence (Eq. 4): I1(v,u) / sum_w I1(v,w).
  float I2(NodeId u, NodeId v) const { return i2_.At(v, u); }

  /// Nodes influenced by u: {v : I2(u,v) >= θ}.
  const DynamicBitset& InfluencedBy(NodeId u) const { return influenced_[u]; }

  /// Embedding ball r(v, d) = {v' : d(X_v^k, X_v'^k) <= r}.
  const DynamicBitset& Ball(NodeId v) const { return ball_[v]; }

  /// I(Vs) of Eq. 5: number of nodes influenced by the set.
  size_t InfluenceScore(const std::vector<NodeId>& vs) const;

  /// D(Vs) of Eq. 6: size of the union of balls around influenced nodes.
  size_t DiversityScore(const std::vector<NodeId>& vs) const;

  /// Final-layer embeddings X^k backing the diversity measure.
  const Matrix& embeddings() const { return embeddings_; }

 private:
  InfluenceAnalyzer() = default;

  void FinalizeSets();

  size_t n_ = 0;
  InfluenceOptions options_;
  Matrix i1_;  // i1_(v, u) = I1(v, u)
  Matrix i2_;  // i2_(v, u) = I2(u, v)
  Matrix embeddings_;
  std::vector<DynamicBitset> influenced_;  // per source u
  std::vector<DynamicBitset> ball_;        // per node v
};

/// \brief Invertible accumulator over a selected set V_S.
///
/// Maintains the influence union I(V_S) and the diversity union D(V_S) so
/// greedy algorithms evaluate marginal gains in O(n/64) per candidate, and
/// keeps one count per node — how many selected nodes influence it — so
/// removals are exact too (IncEVerify's bookkeeping in StreamGVEX). A
/// removal whose influenced nodes all keep another cover changes nothing;
/// otherwise only the balls of the nodes that lost their last cover can
/// shrink D, and the balls of the surviving influenced nodes are
/// subtracted from them word by word. Cover is counted per influenced node
/// only, never per ball element: one ball can hold most of the graph.
class InfluenceAccumulator {
 public:
  explicit InfluenceAccumulator(const InfluenceAnalyzer* analyzer);

  /// I(Vs) + γ·D(Vs) for the current set.
  double Score(float gamma) const;

  size_t influence_count() const { return influence_union_.Count(); }
  size_t diversity_count() const { return diversity_union_.Count(); }

  /// Score if `v` were added, without mutating.
  double ScoreWith(NodeId v, float gamma) const;

  /// Score if the selected node `v` were removed, without mutating.
  double ScoreWithout(NodeId v, float gamma) const;

  /// Add v to the set.
  void Add(NodeId v);

  /// Remove one earlier Add(v).
  void Remove(NodeId v);

  /// Reset to the set `vs`, from scratch: the oracle that tests compare
  /// Add, Remove and ScoreWithout against.
  void Rebuild(const std::vector<NodeId>& vs);

 private:
  const InfluenceAnalyzer* analyzer_;
  std::vector<uint32_t> cover_;  // selected nodes influencing each node
  DynamicBitset influence_union_;
  DynamicBitset diversity_union_;
};

}  // namespace gvex
