#include "gvex/metrics/metrics.h"

#include "gvex/matching/vf2.h"

namespace gvex {

FidelityReport EvaluateFidelity(
    const GcnClassifier& model, const GraphDatabase& db,
    const std::vector<GraphExplanation>& explanations) {
  FidelityReport report;
  double sum_plus = 0.0;
  double sum_minus = 0.0;
  double sum_sparsity = 0.0;
  for (const GraphExplanation& ex : explanations) {
    if (ex.nodes.empty()) continue;
    const Graph& g = db.graph(ex.graph_index);
    GcnPrediction pred = model.Infer(g);
    ClassLabel l = pred.predicted;
    if (l < 0) continue;
    float p_orig = pred.probs[static_cast<size_t>(l)];

    Graph sub = g.InducedSubgraph(ex.nodes);
    float p_sub = model.ProbabilityOf(sub, l);
    Graph rest = g.RemoveNodes(ex.nodes);
    float p_rest = model.ProbabilityOf(rest, l);

    sum_plus += static_cast<double>(p_orig) - p_rest;    // Eq. 8
    sum_minus += static_cast<double>(p_orig) - p_sub;    // Eq. 9
    sum_sparsity += 1.0 - static_cast<double>(ex.nodes.size() +
                                              sub.num_edges()) /
                              static_cast<double>(g.num_nodes() +
                                                  g.num_edges());  // Eq. 10
    ++report.num_graphs;
  }
  if (report.num_graphs > 0) {
    const double inv = 1.0 / static_cast<double>(report.num_graphs);
    report.fidelity_plus = sum_plus * inv;
    report.fidelity_minus = sum_minus * inv;
    report.sparsity = sum_sparsity * inv;
  }
  return report;
}

std::vector<GraphExplanation> ToGraphExplanations(const ExplanationView& view) {
  std::vector<GraphExplanation> out;
  out.reserve(view.subgraphs.size());
  for (const auto& s : view.subgraphs) {
    out.push_back({s.graph_index, s.nodes});
  }
  return out;
}

double ViewEdgeLoss(const ExplanationView& view, const MatchOptions& options) {
  size_t total_edges = 0;
  size_t covered_edges = 0;
  for (const auto& s : view.subgraphs) {
    CoverageResult cov = ComputeCoverage(view.patterns, s.subgraph, options);
    total_edges += s.subgraph.num_edges();
    covered_edges += cov.covered_edges.Count();
  }
  if (total_edges == 0) return 0.0;
  return 1.0 - static_cast<double>(covered_edges) /
                   static_cast<double>(total_edges);
}

}  // namespace gvex
