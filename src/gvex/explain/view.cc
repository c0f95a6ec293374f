#include "gvex/explain/view.h"

#include <algorithm>

#include "gvex/common/string_util.h"

namespace gvex {

size_t ExplanationView::TotalNodes() const {
  size_t total = 0;
  for (const auto& s : subgraphs) total += s.nodes.size();
  return total;
}

size_t ExplanationView::TotalEdges() const {
  size_t total = 0;
  for (const auto& s : subgraphs) total += s.subgraph.num_edges();
  return total;
}

size_t ExplanationView::PatternNodes() const {
  size_t total = 0;
  for (const auto& p : patterns) total += p.num_nodes();
  return total;
}

size_t ExplanationView::PatternEdges() const {
  size_t total = 0;
  for (const auto& p : patterns) total += p.num_edges();
  return total;
}

double ExplanationView::Compression() const {
  const double subgraph_size =
      static_cast<double>(TotalNodes() + TotalEdges());
  if (subgraph_size <= 0.0) return 0.0;
  const double pattern_size =
      static_cast<double>(PatternNodes() + PatternEdges());
  return 1.0 - pattern_size / subgraph_size;
}

std::string ExplanationView::Summary() const {
  return StrFormat(
      "view(label=%d, subgraphs=%zu, patterns=%zu, nodes=%zu, edges=%zu, "
      "f=%.3f, compression=%.3f)",
      label, subgraphs.size(), patterns.size(), TotalNodes(), TotalEdges(),
      explainability, Compression());
}

const ExplanationView* ExplanationViewSet::ForLabel(ClassLabel l) const {
  for (const auto& v : views) {
    if (v.label == l) return &v;
  }
  return nullptr;
}

Status CheckDistinctLabels(const std::vector<ClassLabel>& labels) {
  for (auto l = labels.begin(); l != labels.end(); ++l) {
    if (std::find(labels.begin(), l, *l) != l) {
      return Status::InvalidArgument(
          StrFormat("label %d is listed twice", int(*l)));
    }
  }
  return Status::OK();
}

}  // namespace gvex
