#include "gvex/graph/graph.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <queue>

#include "gvex/common/string_util.h"

namespace gvex {

NodeId Graph::AddNode(NodeType type) {
  node_types_.push_back(type);
  adj_.emplace_back();
  return static_cast<NodeId>(node_types_.size() - 1);
}

Status Graph::AddEdge(NodeId u, NodeId v, EdgeType type) {
  if (u >= num_nodes() || v >= num_nodes()) {
    return Status::InvalidArgument(
        StrFormat("edge (%u,%u) out of range for %zu nodes", u, v,
                  num_nodes()));
  }
  if (u == v) {
    return Status::InvalidArgument("self-loops are not allowed");
  }
  if (HasEdge(u, v)) {
    return Status::AlreadyExists(StrFormat("edge (%u,%u) already present", u, v));
  }
  adj_[u].push_back({v, type});
  if (!directed_) adj_[v].push_back({u, type});
  ++num_edges_;
  return Status::OK();
}

Status Graph::SetFeatures(Matrix features) {
  if (features.rows() != num_nodes()) {
    return Status::InvalidArgument(
        StrFormat("feature rows %zu != num nodes %zu", features.rows(),
                  num_nodes()));
  }
  features_ = std::move(features);
  return Status::OK();
}

void Graph::SetDefaultFeatures(size_t d, float value) {
  features_ = Matrix(num_nodes(), d, value);
}

bool Graph::HasEdge(NodeId u, NodeId v) const {
  if (u >= num_nodes() || v >= num_nodes()) return false;
  const auto& shorter = adj_[u].size() <= adj_[v].size() || directed_
                            ? adj_[u]
                            : adj_[v];
  NodeId target = (&shorter == &adj_[u]) ? v : u;
  for (const auto& nb : shorter) {
    if (nb.node == target) return true;
  }
  return false;
}

EdgeType Graph::GetEdgeType(NodeId u, NodeId v) const {
  if (u >= num_nodes()) return -1;
  for (const auto& nb : adj_[u]) {
    if (nb.node == v) return nb.edge_type;
  }
  // For directed graphs an edge may be stored only at its source.
  if (directed_ && v < num_nodes()) {
    for (const auto& nb : adj_[v]) {
      if (nb.node == u) return nb.edge_type;
    }
  }
  return -1;
}

namespace {

// Undirected-view adjacency visitor: for directed graphs, both in- and
// out-neighbors. Used by connectivity / BFS helpers.
template <typename Fn>
void ForEachUndirectedNeighbor(const Graph& g, NodeId v, Fn&& fn) {
  for (const auto& nb : g.neighbors(v)) fn(nb.node);
  if (g.directed()) {
    // Directed adjacency stores out-edges only; find in-edges by scan.
    // (Directed graphs in this project are small-degree call graphs;
    // callers needing heavy reverse traversal should build a reverse
    // index, which none currently do.)
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (u == v) continue;
      for (const auto& nb : g.neighbors(u)) {
        if (nb.node == v) {
          fn(u);
          break;
        }
      }
    }
  }
}

}  // namespace

bool Graph::IsConnected() const {
  if (num_nodes() == 0) return true;
  return ConnectedComponents().size() == 1;
}

std::vector<std::vector<NodeId>> Graph::ConnectedComponents() const {
  std::vector<std::vector<NodeId>> comps;
  std::vector<bool> seen(num_nodes(), false);
  // For directed graphs, pre-build the undirected adjacency once rather
  // than scanning per node.
  std::vector<std::vector<NodeId>> undirected;
  if (directed_) {
    undirected.resize(num_nodes());
    for (NodeId u = 0; u < num_nodes(); ++u) {
      for (const auto& nb : adj_[u]) {
        undirected[u].push_back(nb.node);
        undirected[nb.node].push_back(u);
      }
    }
  }
  for (NodeId s = 0; s < num_nodes(); ++s) {
    if (seen[s]) continue;
    std::vector<NodeId> comp;
    std::queue<NodeId> q;
    q.push(s);
    seen[s] = true;
    while (!q.empty()) {
      NodeId v = q.front();
      q.pop();
      comp.push_back(v);
      auto visit = [&](NodeId w) {
        if (!seen[w]) {
          seen[w] = true;
          q.push(w);
        }
      };
      if (directed_) {
        for (NodeId w : undirected[v]) visit(w);
      } else {
        for (const auto& nb : adj_[v]) visit(nb.node);
      }
    }
    std::sort(comp.begin(), comp.end());
    comps.push_back(std::move(comp));
  }
  return comps;
}

std::vector<NodeId> Graph::KHopNeighborhood(NodeId v, unsigned hops) const {
  std::vector<NodeId> result;
  if (v >= num_nodes()) return result;
  std::vector<int> dist(num_nodes(), -1);
  std::queue<NodeId> q;
  q.push(v);
  dist[v] = 0;
  result.push_back(v);
  while (!q.empty()) {
    NodeId u = q.front();
    q.pop();
    if (static_cast<unsigned>(dist[u]) >= hops) continue;
    ForEachUndirectedNeighbor(*this, u, [&](NodeId w) {
      if (dist[w] < 0) {
        dist[w] = dist[u] + 1;
        result.push_back(w);
        q.push(w);
      }
    });
  }
  std::sort(result.begin(), result.end());
  return result;
}

Graph Graph::InducedSubgraph(const std::vector<NodeId>& nodes) const {
  Graph sub(directed_);
  std::vector<NodeId> old_to_new(num_nodes(), kInvalidNode);
  for (NodeId old_id : nodes) {
    assert(old_id < num_nodes());
    assert(old_to_new[old_id] == kInvalidNode && "duplicate node in subset");
    old_to_new[old_id] = sub.AddNode(node_type(old_id));
  }
  for (NodeId old_u : nodes) {
    NodeId new_u = old_to_new[old_u];
    for (const auto& nb : adj_[old_u]) {
      NodeId new_v = old_to_new[nb.node];
      if (new_v == kInvalidNode) continue;
      if (!directed_ && new_u > new_v) continue;  // count undirected once
      Status st = sub.AddEdge(new_u, new_v, nb.edge_type);
      (void)st;  // duplicates impossible by construction
    }
  }
  if (has_features()) {
    Matrix f(nodes.size(), feature_dim());
    for (size_t i = 0; i < nodes.size(); ++i) {
      std::copy(features_.RowPtr(nodes[i]),
                features_.RowPtr(nodes[i]) + feature_dim(), f.RowPtr(i));
    }
    sub.features_ = std::move(f);
  }
  return sub;
}

Graph Graph::RemoveNodes(const std::vector<NodeId>& nodes,
                         std::vector<NodeId>* kept) const {
  std::vector<bool> removed(num_nodes(), false);
  for (NodeId v : nodes) {
    assert(v < num_nodes());
    removed[v] = true;
  }
  std::vector<NodeId> keep;
  keep.reserve(num_nodes() - nodes.size());
  for (NodeId v = 0; v < num_nodes(); ++v) {
    if (!removed[v]) keep.push_back(v);
  }
  if (kept != nullptr) *kept = keep;
  return InducedSubgraph(keep);
}

CsrMatrix Graph::NormalizedPropagation(
    const std::vector<float>* edge_type_weights) const {
  return PropagationOperator(PropagationKind::kGcnSymmetric,
                             edge_type_weights);
}

CsrMatrix Graph::PropagationOperator(
    PropagationKind kind, const std::vector<float>* edge_type_weights) const {
  std::vector<NodeId> all(num_nodes());
  std::iota(all.begin(), all.end(), NodeId{0});
  return InducedPropagation(all, kind, edge_type_weights);
}

CsrMatrix Graph::InducedPropagation(
    std::span<const NodeId> order, PropagationKind kind,
    const std::vector<float>* edge_type_weights, Matrix* features) const {
  const size_t n = order.size();
  // local[v]: v's id in the subgraph, or kInvalidNode when v is left out.
  std::vector<NodeId> local(num_nodes(), kInvalidNode);
  for (size_t k = 0; k < n; ++k) {
    assert(order[k] < num_nodes());
    assert(local[order[k]] == kInvalidNode && "duplicate node in order");
    local[order[k]] = static_cast<NodeId>(k);
  }

  auto type_weight = [&](EdgeType t) -> float {
    if (edge_type_weights == nullptr || t < 0 ||
        static_cast<size_t>(t) >= edge_type_weights->size()) {
      return 1.0f;
    }
    return (*edge_type_weights)[static_cast<size_t>(t)];
  };

  // Â = A + I (entries scaled by edge-type weight), symmetrized for
  // directed inputs. Degrees use the weighted entries so the operator
  // stays properly normalized. The edges are visited in the order
  // InducedSubgraph(order) stores them — subgraph node u's edges to
  // later nodes (all of them when directed) in this graph's adjacency
  // order — so the float degree sums round the same way for any weights.
  std::vector<float> deg(n, 1.0f);  // self-loop contributes 1
  struct SymEdge {
    size_t u, v;
    float w;
  };
  std::vector<SymEdge> sym_edges;
  size_t max_edges = 0;
  for (NodeId v : order) max_edges += adj_[v].size();
  sym_edges.reserve(max_edges);
  for (size_t u = 0; u < n; ++u) {
    for (const auto& nb : adj_[order[u]]) {
      const NodeId v = local[nb.node];
      if (v == kInvalidNode || (!directed_ && v < u)) continue;
      const float w = type_weight(nb.edge_type);
      sym_edges.push_back({u, v, w});
      deg[u] += w;
      deg[v] += w;
    }
  }
  std::vector<float> inv_sqrt(n);
  for (size_t i = 0; i < n; ++i) inv_sqrt[i] = 1.0f / std::sqrt(deg[i]);

  // Entry scaling per aggregator kind; `u` is the receiving row.
  auto scale = [&](size_t u, size_t v, float w) -> float {
    switch (kind) {
      case PropagationKind::kGcnSymmetric:
        return w * inv_sqrt[u] * inv_sqrt[v];
      case PropagationKind::kMeanNeighbor:
        return w / deg[u];
      case PropagationKind::kSumNeighbor:
        return w;
    }
    return w;
  };

  std::vector<size_t> rows, cols;
  std::vector<float> vals;
  rows.reserve(2 * sym_edges.size() + n);
  cols.reserve(2 * sym_edges.size() + n);
  vals.reserve(2 * sym_edges.size() + n);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(i);
    cols.push_back(i);
    vals.push_back(scale(i, i, 1.0f));
  }
  for (const SymEdge& e : sym_edges) {
    rows.push_back(e.u);
    cols.push_back(e.v);
    vals.push_back(scale(e.u, e.v, e.w));
    rows.push_back(e.v);
    cols.push_back(e.u);
    vals.push_back(scale(e.v, e.u, e.w));
  }

  if (features != nullptr) {
    if (has_features()) {
      features->Reset(n, feature_dim());
      for (size_t k = 0; k < n; ++k) {
        std::copy(features_.RowPtr(order[k]),
                  features_.RowPtr(order[k]) + feature_dim(),
                  features->RowPtr(k));
      }
    } else {
      *features = Matrix();
    }
  }
  return CsrMatrix::FromTriplets(n, rows, cols, vals);
}

uint64_t Graph::StructureSignature() const {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(num_nodes());
  mix(num_edges_);
  std::vector<NodeType> sorted_types = node_types_;
  std::sort(sorted_types.begin(), sorted_types.end());
  for (NodeType t : sorted_types) mix(static_cast<uint64_t>(t) + 0x9E37ULL);
  std::vector<uint64_t> degs;
  degs.reserve(num_nodes());
  for (NodeId v = 0; v < num_nodes(); ++v) degs.push_back(degree(v));
  std::sort(degs.begin(), degs.end());
  for (uint64_t d : degs) mix(d + 0x85EBULL);
  return h;
}

size_t Graph::AdjacencyBytes() const {
  size_t bytes = adj_.capacity() * sizeof(std::vector<Neighbor>);
  for (const auto& list : adj_) bytes += list.capacity() * sizeof(Neighbor);
  return bytes;
}

std::string Graph::DebugString() const {
  std::string out = StrFormat("Graph(n=%zu, m=%zu, %s", num_nodes(),
                              num_edges_, directed_ ? "directed" : "undirected");
  if (has_features()) out += StrFormat(", d=%zu", feature_dim());
  out += ")";
  return out;
}

}  // namespace gvex
