// ApproxGVEX (Algorithm 1): the "explain-and-summarize" 1/2-approximation.
//
// Explain phase: greedy marginal-gain selection of nodes V_S under the
// coverage constraint [b_l, u_l], with candidates screened by VpExtend
// (Procedure 2) — EVerify checks of the consistency/counterfactual
// constraint C2 plus the size bound.
//
// As written in the paper, VpExtend accepts a candidate only when the
// extended subgraph already satisfies C2; taken literally this cannot
// bootstrap from the empty set (a one-node subgraph is rarely consistent
// and its removal rarely flips the label). We therefore implement the
// procedure the way the cost model of §4 implies it must behave: every
// screened candidate is EVerify'd, and while C2 does not yet hold the
// verifier's class probabilities act as progress signals — the greedy
// rank is the submodular gain in f (which preserves the 1/2-approximation
// argument) plus a small configurable bonus toward consistency and
// counterfactuality. Once C2 holds, candidates that would break it are
// rejected, exactly as Procedure 2 prescribes.
//
// Summarize phase: Psum over the label group's explanation subgraphs.
//
// ApproxGvex::ExplainGraph is the per-graph body. A database build, with
// its checkpointing, cancellation and failure handling, has one
// implementation: ParallelApproxExplain (parallel.h), which Explain runs
// on one thread.
#pragma once

#include <vector>

#include "gvex/common/cancellation.h"
#include "gvex/common/result.h"
#include "gvex/explain/checkpoint.h"
#include "gvex/explain/config.h"
#include "gvex/explain/everify.h"
#include "gvex/explain/view.h"
#include "gvex/gnn/model.h"
#include "gvex/graph/graph_db.h"

namespace gvex {

/// \brief Counters for the efficiency experiments (Fig. 9).
struct ApproxGvexStats {
  size_t graphs_attempted = 0;
  size_t graphs_explained = 0;
  size_t graphs_infeasible = 0;
  size_t graphs_resumed = 0;  ///< taken from a checkpoint, not recomputed
  size_t everify_calls = 0;
  size_t greedy_rounds = 0;

  ApproxGvexStats& operator+=(const ApproxGvexStats& o) {
    graphs_attempted += o.graphs_attempted;
    graphs_explained += o.graphs_explained;
    graphs_infeasible += o.graphs_infeasible;
    graphs_resumed += o.graphs_resumed;
    everify_calls += o.everify_calls;
    greedy_rounds += o.greedy_rounds;
    return *this;
  }
};

/// \brief The two-step explain-and-summarize solver.
class ApproxGvex {
 public:
  ApproxGvex(const GcnClassifier* model, Configuration config)
      : model_(model), verifier_(model), config_(std::move(config)) {}

  const Configuration& config() const { return config_; }
  const ApproxGvexStats& stats() const { return stats_; }
  void ResetStats() { stats_ = ApproxGvexStats{}; }

  /// Explain a single graph w.r.t. label l (the body of Algorithm 1).
  /// Returns kInfeasible when no node set within [b_l, u_l] satisfies C2.
  Result<ExplanationSubgraph> ExplainGraph(const Graph& g, size_t graph_index,
                                           ClassLabel l);

  /// Views for every label of interest: ParallelApproxExplain on one
  /// thread (the one implementation of a database build), whose summed
  /// solver counters are added to stats(). Each label's view runs ExplainGraph on
  /// every graph the model assigned that label, then summarizes them with
  /// Psum. Infeasible graphs are skipped (Alg. 1 line 17); any other
  /// per-graph error, or a label listed twice, fails the build.
  ///
  /// With a `checkpoint`, each completed subgraph is journaled and graphs
  /// already in the journal are restored instead of recomputed, so a
  /// killed run resumes where it stopped. `cancel` is read before each
  /// graph, never cancelled; its deadline passing returns kTimeout.
  Result<ExplanationViewSet> Explain(
      const GraphDatabase& db, const std::vector<ClassLabel>& assigned,
      const std::vector<ClassLabel>& labels,
      const CancellationToken* cancel = nullptr,
      ExplanationCheckpoint* checkpoint = nullptr);

  /// Explain for one label.
  Result<ExplanationView> ExplainLabel(
      const GraphDatabase& db, const std::vector<ClassLabel>& assigned,
      ClassLabel l, const CancellationToken* cancel = nullptr,
      ExplanationCheckpoint* checkpoint = nullptr);

 private:
  const GcnClassifier* model_;
  EVerify verifier_;
  Configuration config_;
  ApproxGvexStats stats_;
};

}  // namespace gvex
