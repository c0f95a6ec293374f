// Configuration C = (θ, r, {[b_l, u_l]}) of §3.2, plus the algorithmic
// knobs the paper leaves to the implementation (γ trade-off of Eq. 2,
// influence backend, pattern-mining bounds, candidate-verification budget).
#pragma once

#include <algorithm>
#include <cstddef>
#include <unordered_map>

#include "gvex/common/result.h"
#include "gvex/graph/graph.h"
#include "gvex/influence/influence.h"
#include "gvex/matching/vf2.h"
#include "gvex/mining/pgen.h"

namespace gvex {

/// \brief Per-label coverage constraint [b_l, u_l] on the number of nodes an
/// explanation subgraph may select from a graph (both solvers enforce it
/// per graph, as Configuration::ConstraintFor(l, n) bounds it).
struct CoverageConstraint {
  size_t lower = 0;
  size_t upper = 15;
};

/// \brief The user-facing configuration C.
struct Configuration {
  /// Influence threshold θ (Eq. 5).
  float theta = 0.1f;
  /// Diversity radius r (Eq. 6).
  float radius = 0.25f;
  /// Influence/diversity trade-off γ (Eq. 2).
  float gamma = 0.5f;

  /// Coverage constraints per class label; labels not present fall back to
  /// `default_coverage`.
  std::unordered_map<ClassLabel, CoverageConstraint> coverage;
  CoverageConstraint default_coverage;

  /// Influence backend (exact Jacobian vs random-walk surrogate).
  InfluenceBackend influence_backend = InfluenceBackend::kRandomWalk;

  /// Pattern mining bounds for PGen / IncPGen.
  PgenOptions pgen;

  /// Matching semantics for coverage verification (C1).
  MatchOptions match;

  /// How many top-gain candidates get full EVerify inference per greedy
  /// round (the VpExtend loop of Algorithm 1 line 4-7; inference on every
  /// candidate is the paper's written form, a top-K screen keeps the same
  /// selection on all but pathological ties at a fraction of the cost).
  size_t everify_top_k = 8;

  /// Weight of the consistency/counterfactual progress bonus when ranking
  /// screened candidates (see ApproxGVEX; 0 recovers pure f-greedy).
  float counterfactual_bonus = 0.5f;

  /// Weight of normalized gradient saliency in the candidate ranking.
  /// Saliency is the first-order estimate of a node's removal impact on
  /// the class logit — the signal that guides selection while the
  /// verifier's probabilities are saturated (confident models move them
  /// only once a near-complete explanation is assembled).
  float saliency_weight = 0.5f;

  /// r-hop neighborhood for IncPGen in the streaming algorithm (§5).
  unsigned stream_hops = 2;

  const CoverageConstraint& ConstraintFor(ClassLabel l) const {
    auto it = coverage.find(l);
    return it == coverage.end() ? default_coverage : it->second;
  }

  /// The bound both solvers enforce on a graph of n >= 1 nodes: u_l is
  /// capped at n - 1, since selecting every node would make the
  /// counterfactual test vacuous (empty remainder), and b_l at the capped
  /// u_l. kInvalidArgument when [b_l, u_l] is empty or u_l = 0;
  /// kInfeasible for a one-node graph, which has no proper subgraph.
  Result<CoverageConstraint> ConstraintFor(ClassLabel l, size_t n) const {
    CoverageConstraint cc = ConstraintFor(l);
    if (cc.lower > cc.upper || cc.upper == 0) {
      return Status::InvalidArgument("invalid coverage constraint");
    }
    cc.upper = std::min(cc.upper, n - 1);
    cc.lower = std::min(cc.lower, cc.upper);
    if (cc.upper == 0) {
      return Status::Infeasible("single-node graph has no proper subgraph");
    }
    return cc;
  }

  InfluenceOptions MakeInfluenceOptions() const {
    InfluenceOptions opts;
    opts.backend = influence_backend;
    opts.theta = theta;
    opts.radius = radius;
    return opts;
  }
};

}  // namespace gvex
