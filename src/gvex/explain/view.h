// Explanation views (§2.2): the two-tier structure of higher-tier graph
// patterns P^l and lower-tier explanation subgraphs G_s^l.
#pragma once

#include <string>
#include <vector>

#include "gvex/common/status.h"
#include "gvex/graph/graph.h"
#include "gvex/graph/graph_db.h"

namespace gvex {

/// \brief One explanation subgraph G_s^l: a node-induced subgraph of a
/// database graph, kept with its provenance so the counterfactual
/// complement G \ G_s can always be reconstructed.
struct ExplanationSubgraph {
  size_t graph_index = 0;       ///< index of G in the database
  std::vector<NodeId> nodes;    ///< V_s in G's node ids, sorted ascending
  Graph subgraph;               ///< induced subgraph (with features)

  /// Per-graph explainability contribution (I(V_s) + γD(V_s)) / |V|.
  double explainability = 0.0;
};

/// \brief An explanation view G_V^l = (P^l, G_s^l) for one class label.
struct ExplanationView {
  ClassLabel label = -1;
  std::vector<Graph> patterns;                 ///< P^l (types only)
  std::vector<ExplanationSubgraph> subgraphs;  ///< G_s^l

  /// f(G_V^l): sum of per-subgraph explainability contributions (Eq. 2).
  double explainability = 0.0;

  /// Total selected nodes across subgraphs.
  size_t TotalNodes() const;
  /// Total edges across subgraphs.
  size_t TotalEdges() const;
  /// Total nodes/edges across patterns (numerator of Eq. 11).
  size_t PatternNodes() const;
  size_t PatternEdges() const;

  /// Compression metric of Eq. 11: 1 - (|V_P|+|E_P|) / (|V_S|+|E_S|).
  double Compression() const;

  std::string Summary() const;
};

/// \brief The full output of GVEX over a label set: one view per label.
struct ExplanationViewSet {
  std::vector<ExplanationView> views;

  const ExplanationView* ForLabel(ClassLabel l) const;
};

/// kInvalidArgument naming the first label that occurs twice in `labels`
/// ("label 1 is listed twice"), else OK. A view set holds one view per
/// label: every explain entry point checks the labels it is asked for
/// before any work, and SaveViewSet the labels of the views it would write.
Status CheckDistinctLabels(const std::vector<ClassLabel>& labels);

}  // namespace gvex
