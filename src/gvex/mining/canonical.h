// Canonical forms for small graph patterns.
//
// Pattern mining repeatedly asks "have I seen this (sub)graph up to
// isomorphism?". Patterns here are small (the paper bounds them by the
// coverage budget u_l and in practice a handful of nodes), so an exact
// minimum-code canonicalization over node permutations — with
// type/degree-class pruning — is both correct and fast enough.
#pragma once

#include <span>
#include <string>

#include "gvex/graph/graph.h"

namespace gvex {

/// \brief Canonical string code of a graph: equal codes <=> isomorphic
/// (including node/edge types and, on directed graphs, arc directions).
/// Intended for graphs of <= ~10 nodes; cost grows factorially in the
/// largest same-(type,degree) class.
std::string CanonicalCode(const Graph& g);

/// Canonical code of the subgraph that `nodes` induce in `g`, read from
/// g's adjacency without building that subgraph: equal, byte for byte, to
/// CanonicalCode(g.InducedSubgraph(nodes)). `nodes` must be duplicate-free;
/// their order does not matter.
std::string CanonicalCode(const Graph& g, std::span<const NodeId> nodes);

/// True iff a and b are isomorphic, via canonical codes.
bool AreIsomorphic(const Graph& a, const Graph& b);

}  // namespace gvex
