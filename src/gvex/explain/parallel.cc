#include "gvex/explain/parallel.h"

#include <algorithm>

#include "gvex/common/logging.h"
#include "gvex/common/string_util.h"
#include "gvex/common/thread_pool.h"
#include "gvex/explain/psum.h"
#include "gvex/obs/obs.h"

namespace gvex {

namespace {

struct WorkItem {
  ClassLabel label;
  size_t graph_index;
};

// What became of one work item.
struct Outcome {
  bool attempted = false;
  bool resumed = false;  // restored from the checkpoint journal
  Result<ExplanationSubgraph> result{Status::Internal("not attempted")};
  ApproxGvexStats stats;  // the item's own solver's counters
};

}  // namespace

Result<ExplanationViewSet> ParallelApproxExplain(
    const GcnClassifier& model, const GraphDatabase& db,
    const std::vector<ClassLabel>& assigned,
    const std::vector<ClassLabel>& labels, const Configuration& config,
    const ParallelExplainOptions& options) {
  // A label listed twice would get its work items twice, and the assembly
  // below would move each of its subgraphs out twice.
  for (auto l = labels.begin(); l != labels.end(); ++l) {
    if (std::find(labels.begin(), l, *l) != l) {
      return Status::InvalidArgument(
          StrFormat("label %d is listed twice", int(*l)));
    }
  }
  GVEX_SPAN("parallel.explain");
  // Flatten (label, graph) work items.
  std::vector<WorkItem> items;
  for (ClassLabel l : labels) {
    for (size_t gi : GraphDatabase::LabelGroup(assigned, l)) {
      items.push_back({l, gi});
    }
  }
  GVEX_COUNTER_ADD("parallel.items", items.size());

  // The build's own stop signal: the first hard failure cancels it, and
  // so does the caller's token, whose cause it copies. The caller's token
  // is only read.
  CancellationToken stop;
  std::vector<Outcome> outcomes(items.size());
  {
    ThreadPool pool(options.num_threads);
    // Per-item solvers: one per worker slot would need worker ids, and a
    // solver is cheap relative to the explain work itself.
    pool.ParallelFor(
        items.size(),
        [&](size_t i) {
          if (options.cancel != nullptr && options.cancel->cancelled()) {
            stop.RequestCancel(options.cancel->cause());
            return;
          }
          const WorkItem& item = items[i];
          Outcome& out = outcomes[i];
          out.attempted = true;
          if (options.checkpoint != nullptr) {
            if (const ExplanationSubgraph* saved =
                    options.checkpoint->Find(item.label, item.graph_index)) {
              out.resumed = true;
              out.result = *saved;
              return;
            }
          }
          ApproxGvex solver(&model, config);
          out.result = solver.ExplainGraph(db.graph(item.graph_index),
                                           item.graph_index, item.label);
          out.stats = solver.stats();
          if (out.result.ok() && options.checkpoint != nullptr) {
            Status journal = options.checkpoint->Append(item.label,
                                                        *out.result);
            // Durability is part of the contract: treat a failed append
            // as a hard item failure so the run stops instead of claiming
            // un-journaled progress.
            if (!journal.ok()) out.result = journal;
          }
          // Alg. 1 line 17: an infeasible graph contributes no subgraph by
          // design. Anything else is a hard failure.
          if (!out.result.ok() && !out.result.status().IsInfeasible()) {
            stop.RequestCancel(out.result.status());
          }
        },
        &stop);
  }

  // ---- failure aggregation ---------------------------------------------------
  std::vector<std::string> failures;
  StatusCode first_failure = StatusCode::kOk;
  size_t not_attempted = 0;
  ApproxGvexStats solver_stats;
  for (size_t i = 0; i < items.size(); ++i) {
    const Outcome& out = outcomes[i];
    if (!out.attempted) {
      ++not_attempted;
      continue;
    }
    solver_stats += out.stats;
    if (out.resumed) ++solver_stats.graphs_resumed;
    if (out.result.ok() || out.result.status().IsInfeasible()) continue;
    if (failures.empty()) first_failure = out.result.status().code();
    failures.push_back(StrFormat("graph %zu/label %d: %s",
                                 items[i].graph_index, int(items[i].label),
                                 out.result.status().ToString().c_str()));
  }
  if (options.report != nullptr) {
    options.report->not_attempted = not_attempted;
    options.report->solver = solver_stats;
  }

  if (!failures.empty()) {
    constexpr size_t kMaxListed = 8;
    std::string msg = StrFormat("%zu of %zu graph explanations failed",
                                failures.size(), items.size());
    if (not_attempted > 0) {
      msg += StrFormat(" (%zu outstanding cancelled)", not_attempted);
    }
    msg += ": ";
    for (size_t i = 0; i < failures.size() && i < kMaxListed; ++i) {
      if (i > 0) msg += "; ";
      msg += failures[i];
    }
    if (failures.size() > kMaxListed) {
      msg += StrFormat("; ... %zu more", failures.size() - kMaxListed);
    }
    // Reuse the first failure's code so callers can still dispatch on it.
    return Status(first_failure, std::move(msg));
  }
  if (not_attempted > 0) {
    // Stopped without a failure: the caller's token was cancelled, or its
    // deadline passed.
    const size_t done = items.size() - not_attempted;
    Status cause = stop.cause();
    if (cause.IsTimeout()) {
      std::string note = StrFormat(
          "explanation deadline expired: %zu/%zu graphs done, %zu outstanding",
          done, items.size(), not_attempted);
      note += options.checkpoint != nullptr
                  ? "; partial progress journaled, re-run with resume"
                  : "; partial progress lost (no checkpoint)";
      return Status::Timeout(std::move(note));
    }
    return Status(cause.code(),
                  StrFormat("explanation cancelled after %zu/%zu graphs: %s",
                            done, items.size(), cause.message().c_str()));
  }

  // ---- assembly + per-view accounting ---------------------------------------
  ExplanationViewSet set;
  for (ClassLabel l : labels) {
    ExplanationView view;
    view.label = l;
    PerViewBuildStats stats;
    for (size_t i = 0; i < items.size(); ++i) {
      if (items[i].label != l) continue;
      Outcome& out = outcomes[i];
      ++stats.attempted;
      if (!out.result.ok()) {
        ++stats.infeasible;
        GVEX_LOG(Debug) << "graph " << items[i].graph_index
                        << " infeasible for label " << l;
        continue;
      }
      if (out.resumed) ++stats.resumed;
      ++stats.explained;
      view.explainability += out.result->explainability;
      view.subgraphs.push_back(std::move(*out.result));
    }
    // Items follow LabelGroup, so the subgraphs are in graph-index order.
    // Summarize phase: one pattern set covering every subgraph of the
    // label group (the view invariant: P^l covers the nodes of G_s^l).
    std::vector<Graph> raw;
    raw.reserve(view.subgraphs.size());
    for (const auto& s : view.subgraphs) raw.push_back(s.subgraph);
    PsumResult summary = Psum(raw, config);
    view.patterns = std::move(summary.patterns);
    if (options.report != nullptr) options.report->per_view[l] = stats;
    set.views.push_back(std::move(view));
  }
  return set;
}

}  // namespace gvex
