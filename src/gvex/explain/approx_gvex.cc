#include "gvex/explain/approx_gvex.h"

#include <algorithm>

#include "gvex/common/failpoint.h"
#include "gvex/explain/parallel.h"
#include "gvex/influence/influence.h"
#include "gvex/obs/obs.h"

namespace gvex {
namespace {

struct Candidate {
  NodeId node;
  double gain;  // marginal explainability gain
};

}  // namespace

std::vector<float> GradientSaliency(const GcnClassifier& model, const Graph& g,
                                    ClassLabel l) {
  std::vector<float> saliency(g.num_nodes(), 0.0f);
  GcnTrace trace = model.Forward(g);
  if (!trace.logits.empty() && l >= 0 &&
      static_cast<size_t>(l) < trace.probs.size()) {
    Matrix grad = model.InputLogitGradient(trace, l);
    for (NodeId v = 0; v < g.num_nodes(); ++v) saliency[v] = grad.RowL1Norm(v);
  }
  return saliency;
}

void SortBySaliency(const std::vector<float>& saliency,
                    std::vector<NodeId>* nodes) {
  std::sort(nodes->begin(), nodes->end(), [&](NodeId a, NodeId b) {
    if (saliency[a] != saliency[b]) return saliency[a] > saliency[b];
    return a < b;
  });
}

Result<ExplanationSubgraph> ApproxGvex::ExplainGraph(const Graph& g,
                                                     size_t graph_index,
                                                     ClassLabel l) {
  ++stats_.graphs_attempted;
  GVEX_FAILPOINT_RETURN("approx.explain_graph");
  if (g.num_nodes() == 0) {
    return Status::InvalidArgument("cannot explain an empty graph");
  }
  GVEX_SPAN("approx.explain_graph");
  GVEX_COUNTER_INC("approx.graphs");
  Result<CoverageConstraint> bound = config_.ConstraintFor(l, g.num_nodes());
  if (!bound.ok()) {
    if (bound.status().IsInfeasible()) ++stats_.graphs_infeasible;
    return bound.status();
  }
  const CoverageConstraint cc = *bound;

  GVEX_ASSIGN_OR_RETURN(
      InfluenceAnalyzer analyzer,
      InfluenceAnalyzer::Build(*model_, g, config_.MakeInfluenceOptions()));
  InfluenceAccumulator acc(&analyzer);
  const float gamma = config_.gamma;
  const double inv_graph_size = 1.0 / static_cast<double>(g.num_nodes());

  // Saliency is a second candidate-screening signal. The paper's VpExtend
  // EVerifies every candidate; our top-K screen must not miss
  // label-critical nodes whose *influence* gain happens to be small
  // (common when the class evidence sits on low-degree nodes), so the
  // probe set is the union of the top-K by f-gain and the top-K by
  // saliency. The rank reads saliency scaled by 1/max into [0, 1].
  const std::vector<float> saliency = GradientSaliency(*model_, g, l);
  float max_saliency = 0.0f;
  for (float s : saliency) max_saliency = std::max(max_saliency, s);
  const float inv_saliency =
      max_saliency > 0.0f ? 1.0f / max_saliency : 0.0f;
  std::vector<NodeId> saliency_order(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) saliency_order[v] = v;
  SortBySaliency(saliency, &saliency_order);

  std::vector<bool> in_vs(g.num_nodes(), false);
  std::vector<NodeId> vs;  // V_S, kept sorted on return
  bool valid = false;      // does V_S currently satisfy C2?

  auto verify_set = [&](const std::vector<NodeId>& nodes) {
    ++stats_.everify_calls;
    return verifier_.Verify(g, nodes, l);
  };

  // ---- explanation phase (Alg. 1 lines 3-9) --------------------------------
  while (vs.size() < cc.upper && vs.size() < g.num_nodes()) {
    ++stats_.greedy_rounds;
    const double base_score = acc.Score(gamma);

    // Marginal f-gain for every remaining node (cheap bitset algebra).
    std::vector<Candidate> candidates;
    candidates.reserve(g.num_nodes() - vs.size());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (in_vs[v]) continue;
      candidates.push_back({v, acc.ScoreWith(v, gamma) - base_score});
    }
    if (candidates.empty()) break;
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                if (a.gain != b.gain) return a.gain > b.gain;
                return a.node < b.node;
              });

    // VpExtend on the probe set: top-K by gain plus top-K by saliency.
    const size_t k = std::min(candidates.size(),
                              std::max<size_t>(1, config_.everify_top_k));
    std::vector<NodeId> probe;
    probe.reserve(2 * k);
    for (size_t i = 0; i < k; ++i) probe.push_back(candidates[i].node);
    for (NodeId v : saliency_order) {
      if (probe.size() >= 2 * k) break;
      if (!in_vs[v] &&
          std::find(probe.begin(), probe.end(), v) == probe.end()) {
        probe.push_back(v);
      }
    }
    // Marginal gain lookup for the probed nodes.
    std::vector<double> probe_gain(probe.size(), 0.0);
    for (size_t i = 0; i < probe.size(); ++i) {
      for (const Candidate& c : candidates) {
        if (c.node == probe[i]) {
          probe_gain[i] = c.gain;
          break;
        }
      }
    }
    NodeId best_node = kInvalidNode;
    double best_rank = -1e18;
    double best_gain = 0.0;
    bool best_valid = false;
    for (size_t i = 0; i < probe.size(); ++i) {
      std::vector<NodeId> extended = vs;
      extended.push_back(probe[i]);
      EVerifyResult ev = verify_set(extended);
      if (valid && !ev.IsExplanation()) {
        continue;  // Procedure 2: do not break an achieved explanation
      }
      double rank = probe_gain[i] * inv_graph_size +
                    static_cast<double>(config_.counterfactual_bonus) *
                        ev.Margin() +
                    static_cast<double>(config_.saliency_weight) *
                        static_cast<double>(saliency[probe[i]] * inv_saliency);
      if (rank > best_rank) {
        best_rank = rank;
        best_node = probe[i];
        best_gain = probe_gain[i];
        best_valid = ev.IsExplanation();
      }
    }
    if (best_node == kInvalidNode) break;

    // Stop once valid, the lower bound is met, and explainability is
    // exhausted (monotone f: zero marginal gain ends the greedy).
    if (valid && vs.size() >= std::max<size_t>(cc.lower, 1) &&
        best_gain <= 0.0) {
      break;
    }
    vs.push_back(best_node);
    in_vs[best_node] = true;
    acc.Add(best_node);
    valid = best_valid;
  }

  // ---- lower-bound top-up (Alg. 1 lines 10-17) ------------------------------
  while (vs.size() < cc.lower && vs.size() < g.num_nodes()) {
    const double base_score = acc.Score(gamma);
    NodeId best_node = kInvalidNode;
    double best_gain = -1e18;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (in_vs[v]) continue;
      double gain = acc.ScoreWith(v, gamma) - base_score;
      if (gain > best_gain) {
        best_gain = gain;
        best_node = v;
      }
    }
    if (best_node == kInvalidNode) break;
    vs.push_back(best_node);
    in_vs[best_node] = true;
    acc.Add(best_node);
  }
  if (vs.size() < cc.lower) {
    ++stats_.graphs_infeasible;
    return Status::Infeasible("graph smaller than coverage lower bound");
  }

  // ---- final verification ---------------------------------------------------
  std::sort(vs.begin(), vs.end());
  EVerifyResult final_check = verify_set(vs);
  if (!final_check.IsExplanation()) {
    ++stats_.graphs_infeasible;
    return Status::Infeasible(
        "no consistent+counterfactual subgraph within coverage bounds");
  }

  ExplanationSubgraph out;
  out.graph_index = graph_index;
  out.nodes = vs;
  out.subgraph = g.InducedSubgraph(vs);
  out.explainability =
      (static_cast<double>(analyzer.InfluenceScore(vs)) +
       static_cast<double>(gamma) *
           static_cast<double>(analyzer.DiversityScore(vs))) *
      inv_graph_size;
  ++stats_.graphs_explained;
  return out;
}

Result<ExplanationViewSet> ApproxGvex::Explain(
    const GraphDatabase& db, const std::vector<ClassLabel>& assigned,
    const std::vector<ClassLabel>& labels, const CancellationToken* cancel,
    ExplanationCheckpoint* checkpoint) {
  ParallelExplainOptions options;
  options.cancel = cancel;
  options.checkpoint = checkpoint;
  ParallelExplainReport report;
  options.report = &report;
  Result<ExplanationViewSet> set =
      ParallelApproxExplain(*model_, db, assigned, labels, config_, options);
  stats_ += report.solver;
  return set;
}

Result<ExplanationView> ApproxGvex::ExplainLabel(
    const GraphDatabase& db, const std::vector<ClassLabel>& assigned,
    ClassLabel l, const CancellationToken* cancel,
    ExplanationCheckpoint* checkpoint) {
  GVEX_ASSIGN_OR_RETURN(ExplanationViewSet set,
                        Explain(db, assigned, {l}, cancel, checkpoint));
  return std::move(set.views.front());
}

}  // namespace gvex
