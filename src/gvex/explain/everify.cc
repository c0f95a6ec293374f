#include "gvex/explain/everify.h"

#include "gvex/common/failpoint.h"
#include "gvex/obs/obs.h"

namespace gvex {

EVerifyResult EVerify::Verify(const Graph& g,
                              const std::vector<NodeId>& nodes,
                              ClassLabel l) const {
  // Inference is the hot spot of every solver; a delay armed here makes
  // deadline expiry and slow-worker orderings reproducible in tests.
  GVEX_FAILPOINT_NOTIFY("everify.verify");
  GVEX_COUNTER_INC("everify.calls");
  GVEX_LATENCY_US("everify.verify_us");
  EVerifyResult result;
  if (nodes.empty() || l < 0) return result;
  const GcnConfig& config = model_->config();
  const size_t label = static_cast<size_t>(l);

  // G_s and G \ G_s go straight from g's adjacency to their propagation
  // operators and feature rows: node k of G_s is nodes[k], and G \ G_s
  // keeps the rest in ascending id order, as InducedSubgraph and
  // RemoveNodes number them.
  Matrix x;
  CsrMatrix s = g.InducedPropagation(nodes, config.propagation,
                                     config.EdgeTypeWeights(), &x);
  const GcnPrediction sub = model_->Infer(x, s);
  result.consistent = sub.predicted == l;
  if (label < sub.probs.size()) result.prob_subgraph = sub.probs[label];

  std::vector<bool> removed(g.num_nodes(), false);
  for (NodeId v : nodes) removed[v] = true;
  std::vector<NodeId> rest;
  rest.reserve(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!removed[v]) rest.push_back(v);
  }
  if (rest.empty()) {
    // Everything removed: the remainder has no label, trivially != l.
    result.counterfactual = true;
    result.prob_remainder = 0.0f;
  } else {
    s = g.InducedPropagation(rest, config.propagation,
                             config.EdgeTypeWeights(), &x);
    const GcnPrediction rem = model_->Infer(x, s);
    result.counterfactual = rem.predicted != l;
    if (label < rem.probs.size()) result.prob_remainder = rem.probs[label];
  }
  return result;
}

}  // namespace gvex
