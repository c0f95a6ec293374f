// Parallel view generation (appendix A.7), and the one implementation of
// an ApproxGVEX database build: ApproxGvex::Explain and ExplainLabel run
// it on one thread. The per-graph explain phase is embarrassingly parallel,
// so graphs are distributed over a thread pool and the per-label
// summarize phase (Psum) runs once the subgraphs are in.
//
// It is also the fault-tolerance front door for long jobs: it
// honors the caller's CancellationToken (and its deadline) inside the
// fan-out, reading it but never cancelling it; stops outstanding work on
// the first non-recoverable error; skips only infeasible graphs; journals
// each completed subgraph to an append-only checkpoint (and skips
// journaled graphs on resume); and aggregates *every* per-item failure
// into the returned Status instead of surfacing only the first.
#pragma once

#include <cstddef>
#include <map>
#include <vector>

#include "gvex/common/cancellation.h"
#include "gvex/common/result.h"
#include "gvex/explain/approx_gvex.h"
#include "gvex/explain/checkpoint.h"
#include "gvex/explain/config.h"
#include "gvex/explain/view.h"
#include "gvex/gnn/model.h"
#include "gvex/graph/graph_db.h"

namespace gvex {

/// Per-label accounting of what happened to each graph in the group.
/// Infeasible graphs contribute no subgraph by design (Alg. 1 line 17)
/// but are counted and logged instead of vanishing.
struct PerViewBuildStats {
  size_t attempted = 0;
  size_t explained = 0;
  size_t infeasible = 0;
  size_t resumed = 0;  ///< restored from the checkpoint journal
};

struct ParallelExplainReport {
  std::map<ClassLabel, PerViewBuildStats> per_view;
  /// Work items never dispatched because the run was cancelled.
  size_t not_attempted = 0;
  /// The summed counters of every per-graph solver; checkpoint hits count
  /// as `graphs_resumed`. Filled whether or not the build succeeds.
  ApproxGvexStats solver;
};

struct ParallelExplainOptions {
  size_t num_threads = 1;
  /// Optional caller token, read before each per-graph solve: cancelling
  /// it, or its deadline passing, stops the fan-out, and a deadline
  /// returns kTimeout with partial progress noted. ParallelApproxExplain
  /// never cancels it; a hard failure stops the fan-out through a token
  /// of its own.
  const CancellationToken* cancel = nullptr;
  /// Journal of completed subgraphs for checkpoint/resume.
  ExplanationCheckpoint* checkpoint = nullptr;
  /// Filled with per-view accounting when non-null.
  ParallelExplainReport* report = nullptr;
};

/// Run ApproxGVEX's explain phase across `options.num_threads` workers,
/// then Psum per label. A label listed twice is kInvalidArgument. Only
/// kInfeasible is a skippable miss; any other per-graph error fails the
/// build with every failure listed and the first failure's code. The
/// output is deterministic given the configuration and independent of the
/// thread count, so a resumed run reproduces the uninterrupted result.
Result<ExplanationViewSet> ParallelApproxExplain(
    const GcnClassifier& model, const GraphDatabase& db,
    const std::vector<ClassLabel>& assigned,
    const std::vector<ClassLabel>& labels, const Configuration& config,
    const ParallelExplainOptions& options);

}  // namespace gvex
