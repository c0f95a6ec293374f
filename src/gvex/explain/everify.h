// EVerify: the GNN-inference verifier of §4 checking constraint C2 — an
// explanation subgraph must be *consistent* (M(G_s) = l) and
// *counterfactual* (M(G \ G_s) != l).
#pragma once

#include <vector>

#include "gvex/gnn/model.h"
#include "gvex/graph/graph.h"

namespace gvex {

/// \brief Result of one C2 verification, with the class probabilities that
/// the greedy candidate ranking uses as progress signals.
struct EVerifyResult {
  bool consistent = false;       ///< M(G_s) == l
  bool counterfactual = false;   ///< M(G \ G_s) != l
  float prob_subgraph = 0.0f;    ///< P(M(G_s) = l)
  float prob_remainder = 0.0f;   ///< P(M(G \ G_s) = l)

  bool IsExplanation() const { return consistent && counterfactual; }

  /// C2 progress, P(M(G_s) = l) - P(M(G \ G_s) = l) in double: how far
  /// the subgraph is toward consistent and counterfactual.
  double Margin() const {
    return static_cast<double>(prob_subgraph) -
           static_cast<double>(prob_remainder);
  }
};

/// \brief Stateless verifier bound to a fixed model M.
class EVerify {
 public:
  explicit EVerify(const GcnClassifier* model) : model_(model) {}

  /// Verify the node set `nodes` of `g` as an explanation for label `l`.
  /// An empty node set is never an explanation; removing all of `g` makes
  /// the remainder unclassifiable (kNoLabel), which satisfies the
  /// counterfactual clause per the footnote-1 semantics.
  EVerifyResult Verify(const Graph& g, const std::vector<NodeId>& nodes,
                       ClassLabel l) const;

  const GcnClassifier& model() const { return *model_; }

 private:
  const GcnClassifier* model_;
};

}  // namespace gvex
