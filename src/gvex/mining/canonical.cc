#include "gvex/mining/canonical.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <numeric>
#include <string_view>
#include <utility>
#include <vector>

namespace gvex {
namespace {

// The canonical-code search over one graph given as a table: n nodes, each
// with a type and a degree, and an arc code per ordered pair (0 = no arc,
// else edge type + 1). Both public forms fill the table, then call
// Minimum(); one table per thread is reused across calls.
class CodeTable {
 public:
  void Reset(size_t n, bool directed) {
    n_ = n;
    directed_ = directed;
    types_.assign(n, 0);
    degrees_.assign(n, 0);
    arcs_.assign(n * n, 0);
  }
  void SetType(size_t i, NodeType type) { types_[i] = type; }
  // The arc i -> j; an undirected edge is recorded as both of its arcs.
  // A node's degree counts its arcs out, as Graph::degree does.
  void AddArc(size_t i, size_t j, EdgeType type) {
    arcs_[i * n_ + j] = static_cast<int64_t>(type) + 1;
    ++degrees_[i];
  }

  // The least code over the node orders that sort nodes by (type, degree):
  // node types in order, then '|', then one ';'-terminated token per pair
  // i < j in row-major order: the arc code of i -> j, and on directed
  // graphs ',' and the arc code of j -> i. Every such order writes the
  // same type prefix, so the pair tokens decide, and the set of orders
  // tried is an isomorphism invariant, so the minimum is too.
  std::string Minimum() {
    perm_.resize(n_);
    std::iota(perm_.begin(), perm_.end(), NodeId{0});
    auto cls = [&](NodeId v) { return std::make_pair(types_[v], degrees_[v]); };
    std::sort(perm_.begin(), perm_.end(), [&](NodeId a, NodeId b) {
      return cls(a) != cls(b) ? cls(a) < cls(b) : a < b;
    });
    classes_.clear();
    for (size_t start = 0, i = 1; i <= n_; ++i) {
      if (i == n_ || cls(perm_[i]) != cls(perm_[start])) {
        classes_.emplace_back(start, i);
        start = i;
      }
    }
    cur_.clear();
    for (NodeId v : perm_) {
      AppendNumber(types_[v]);
      cur_ += ',';
    }
    cur_ += '|';
    prefix_ = cur_.size();

    // An odometer over the classes: each digit steps its class's segment
    // through every permutation, starting and ending at ascending ids.
    std::string best;
    for (;;) {
      if (EncodeBelow(best)) best = cur_;
      size_t ci = classes_.size();
      while (ci > 0 && !std::next_permutation(
                           perm_.begin() + classes_[ci - 1].first,
                           perm_.begin() + classes_[ci - 1].second)) {
        --ci;
      }
      if (ci == 0) return best;
    }
  }

 private:
  void AppendNumber(int64_t x) {
    char buf[24];
    cur_.append(buf, std::to_chars(buf, buf + sizeof(buf), x).ptr);
  }

  // Writes the pair tokens of the current order after the prefix and
  // returns whether the code is below `best` (always, when there is none
  // yet). Stops writing once the code is known to be above it.
  bool EncodeBelow(const std::string& best) {
    cur_.resize(prefix_);
    bool below = best.empty();
    for (size_t i = 0; i < n_; ++i) {
      const int64_t* row = &arcs_[perm_[i] * n_];
      for (size_t j = i + 1; j < n_; ++j) {
        const size_t at = cur_.size();
        AppendNumber(row[perm_[j]]);
        if (directed_) {
          cur_ += ',';
          AppendNumber(arcs_[perm_[j] * n_ + perm_[i]]);
        }
        cur_ += ';';
        if (below) continue;
        // Bytes before `at` equal best's, so at <= best.size().
        const int c = std::string_view(cur_).substr(at).compare(
            std::string_view(best).substr(at, cur_.size() - at));
        if (c > 0) return false;
        below = c < 0;
      }
    }
    return below || cur_.size() < best.size();
  }

  size_t n_ = 0;
  bool directed_ = false;
  std::vector<NodeType> types_;
  std::vector<size_t> degrees_;
  std::vector<int64_t> arcs_;  // n x n, row-major
  std::vector<NodeId> perm_;
  std::vector<std::pair<size_t, size_t>> classes_;
  std::string cur_;
  size_t prefix_ = 0;
};

CodeTable& ThreadTable() {
  thread_local CodeTable table;
  return table;
}

bool FindArc(std::span<const Neighbor> list, NodeId target, EdgeType* type) {
  for (const Neighbor& nb : list) {
    if (nb.node == target) {
      *type = nb.edge_type;
      return true;
    }
  }
  return false;
}

}  // namespace

std::string CanonicalCode(const Graph& g) {
  const size_t n = g.num_nodes();
  if (n == 0) return "empty";
  CodeTable& table = ThreadTable();
  table.Reset(n, g.directed());
  for (NodeId u = 0; u < n; ++u) {
    table.SetType(u, g.node_type(u));
    for (const Neighbor& nb : g.neighbors(u)) {
      table.AddArc(u, nb.node, nb.edge_type);
    }
  }
  return table.Minimum();
}

std::string CanonicalCode(const Graph& g, std::span<const NodeId> nodes) {
  const size_t n = nodes.size();
  if (n == 0) return "empty";
  CodeTable& table = ThreadTable();
  table.Reset(n, g.directed());
  EdgeType type = kDefaultEdgeType;
  for (size_t i = 0; i < n; ++i) {
    const NodeId u = nodes[i];
    table.SetType(i, g.node_type(u));
    for (size_t j = i + 1; j < n; ++j) {
      const NodeId v = nodes[j];
      if (g.directed()) {
        if (FindArc(g.neighbors(u), v, &type)) table.AddArc(i, j, type);
        if (FindArc(g.neighbors(v), u, &type)) table.AddArc(j, i, type);
        continue;
      }
      // Either list holds the edge; scan the shorter one.
      const bool edge = g.degree(u) <= g.degree(v)
                            ? FindArc(g.neighbors(u), v, &type)
                            : FindArc(g.neighbors(v), u, &type);
      if (edge) {
        table.AddArc(i, j, type);
        table.AddArc(j, i, type);
      }
    }
  }
  return table.Minimum();
}

bool AreIsomorphic(const Graph& a, const Graph& b) {
  if (a.num_nodes() != b.num_nodes() || a.num_edges() != b.num_edges()) {
    return false;
  }
  if (a.StructureSignature() != b.StructureSignature()) return false;
  return CanonicalCode(a) == CanonicalCode(b);
}

}  // namespace gvex
