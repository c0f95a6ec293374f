// Attributed graphs (§2.1 of the paper): typed nodes and edges plus a dense
// node-feature matrix. The same class represents database graphs,
// explanation subgraphs, and graph patterns (patterns simply carry no
// features).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "gvex/common/result.h"
#include "gvex/common/status.h"
#include "gvex/tensor/csr.h"
#include "gvex/tensor/matrix.h"

namespace gvex {

using NodeId = uint32_t;
using NodeType = int32_t;
using EdgeType = int32_t;
using ClassLabel = int32_t;

inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);
inline constexpr EdgeType kDefaultEdgeType = 0;

/// \brief One endpoint of an adjacency entry.
struct Neighbor {
  NodeId node;
  EdgeType edge_type;

  bool operator==(const Neighbor&) const = default;
};

/// \brief An attributed graph G = (V, E, T, L).
///
/// Nodes are dense ids [0, num_nodes). Each node has a type L(v) and an
/// optional feature row T(v); each edge has a type L(e). Undirected graphs
/// store both directions in the adjacency lists but count each edge once.
class Graph {
 public:
  Graph() = default;
  explicit Graph(bool directed) : directed_(directed) {}

  // ---- construction -------------------------------------------------------

  /// Append a node of the given type; returns its id.
  NodeId AddNode(NodeType type);

  /// Add an edge u-v (or u->v when directed). Duplicate and self-loop edges
  /// are rejected.
  Status AddEdge(NodeId u, NodeId v, EdgeType type = kDefaultEdgeType);

  /// Attach an n x d feature matrix (n must equal num_nodes). Graphs used
  /// for GNN inference must have features; patterns need not.
  Status SetFeatures(Matrix features);

  /// Give every node the same default feature vector of dimension d (used
  /// for featureless datasets, per the paper's setup §6.1).
  void SetDefaultFeatures(size_t d, float value = 1.0f);

  // ---- basic accessors -----------------------------------------------------

  bool directed() const { return directed_; }
  size_t num_nodes() const { return node_types_.size(); }
  size_t num_edges() const { return num_edges_; }
  bool empty() const { return node_types_.empty(); }

  NodeType node_type(NodeId v) const { return node_types_[v]; }
  const std::vector<NodeType>& node_types() const { return node_types_; }

  std::span<const Neighbor> neighbors(NodeId v) const {
    return {adj_[v].data(), adj_[v].size()};
  }
  size_t degree(NodeId v) const { return adj_[v].size(); }

  bool HasEdge(NodeId u, NodeId v) const;
  /// Edge type of u-v; kInvalidEdge behaviour: returns -1 when absent.
  EdgeType GetEdgeType(NodeId u, NodeId v) const;

  bool has_features() const { return features_.rows() == num_nodes(); }
  size_t feature_dim() const { return features_.cols(); }
  const Matrix& features() const { return features_; }
  Matrix& mutable_features() { return features_; }

  // ---- structure queries ---------------------------------------------------

  bool IsConnected() const;

  /// Connected components as lists of node ids (undirected sense; directed
  /// graphs use weak connectivity).
  std::vector<std::vector<NodeId>> ConnectedComponents() const;

  /// Nodes within `hops` of `v` (including v), BFS over the undirected view.
  std::vector<NodeId> KHopNeighborhood(NodeId v, unsigned hops) const;

  // ---- derived structures --------------------------------------------------

  /// Node-induced subgraph on `nodes`. Node k of the result corresponds to
  /// nodes[k] of this graph; `nodes` must be duplicate-free. Features (when
  /// present) are carried over.
  Graph InducedSubgraph(const std::vector<NodeId>& nodes) const;

  /// Induced subgraph on the complement of `nodes` — "G \ Gs" of the
  /// counterfactual test. `kept` (optional) receives the original id of
  /// each kept node.
  Graph RemoveNodes(const std::vector<NodeId>& nodes,
                    std::vector<NodeId>* kept = nullptr) const;

  /// Message-passing aggregation operators. All three share the
  /// "S · X · W" layer form, so one forward/backward implementation
  /// serves every variant (the model-agnostic premise of GVEX).
  enum class PropagationKind {
    kGcnSymmetric,   ///< D^-1/2 (A + I) D^-1/2 — GCN, Eq. 1
    kMeanNeighbor,   ///< D^-1 (A + I) — GraphSAGE-mean flavor
    kSumNeighbor,    ///< A + I — GIN-sum flavor
  };

  /// Symmetric GCN propagation operator S = D^-1/2 (A + I) D^-1/2 (Eq. 1).
  /// Directed graphs are symmetrized first, which matches the standard
  /// GCN treatment.
  ///
  /// `edge_type_weights` (optional) scales each edge's adjacency entry by
  /// weights[type] before normalization — the edge-feature-aware variant
  /// the paper names as future work (e.g. chemistry: double bonds carry
  /// more weight than single bonds). Types beyond the vector's size weigh
  /// 1; self-loops always weigh 1.
  CsrMatrix NormalizedPropagation(
      const std::vector<float>* edge_type_weights = nullptr) const;

  /// Propagation operator of the requested kind (see PropagationKind):
  /// InducedPropagation over all nodes in id order.
  CsrMatrix PropagationOperator(
      PropagationKind kind,
      const std::vector<float>* edge_type_weights = nullptr) const;

  /// Propagation operator of the subgraph induced by `order` (node k of
  /// the subgraph is order[k]; duplicate-free), built straight from this
  /// graph's adjacency without materializing the subgraph. `features`
  /// (optional) receives the subgraph's feature rows, or an empty matrix
  /// when this graph has none. Equal, bit for bit, to
  /// InducedSubgraph(order).PropagationOperator(kind, edge_type_weights)
  /// and that subgraph's features(): EVerify's two operators per
  /// candidate come from here.
  CsrMatrix InducedPropagation(std::span<const NodeId> order,
                               PropagationKind kind,
                               const std::vector<float>* edge_type_weights,
                               Matrix* features = nullptr) const;

  /// Multiset signature for cheap inequality screening: (n, m, sorted type
  /// histogram hash). Equal graphs always agree; unequal graphs usually
  /// disagree.
  uint64_t StructureSignature() const;

  /// Bytes resident in the nested adjacency representation: per-node
  /// vector headers plus each list's allocated *capacity* (push_back's
  /// doubling growth leaves slack in every list). The "before" side of
  /// the bytes_per_view comparison against CsrGraphView::AdjacencyBytes.
  size_t AdjacencyBytes() const;

  std::string DebugString() const;

 private:
  bool directed_ = false;
  std::vector<NodeType> node_types_;
  std::vector<std::vector<Neighbor>> adj_;
  size_t num_edges_ = 0;
  Matrix features_;  // empty, or num_nodes x d
};

}  // namespace gvex
