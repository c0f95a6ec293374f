#include "gvex/explain/parallel.h"

#include <algorithm>
#include <atomic>
#include <mutex>

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

// Outcome markers for items that never produced a Result.
Status NotAttempted() { return Status::Internal("not attempted"); }

bool IsSkippableMiss(const Status& st) {
  // Alg. 1 line 17: these graphs contribute no subgraph by design.
  return st.IsInfeasible() || st.IsInvalidArgument();
}

}  // namespace

Result<ExplanationViewSet> ParallelApproxExplain(
    const GcnClassifier& model, const GraphDatabase& db,
    const std::vector<ClassLabel>& assigned,
    const std::vector<ClassLabel>& labels, const Configuration& config,
    const ParallelExplainOptions& options) {
  GVEX_SPAN("parallel.explain");
  // Flatten (label, graph) work items.
  std::vector<WorkItem> items;
  for (ClassLabel l : labels) {
    for (size_t gi : GraphDatabase::LabelGroup(assigned, l)) {
      items.push_back({l, gi});
    }
  }
  GVEX_COUNTER_ADD("parallel.items", items.size());

  CancellationToken local_cancel;
  CancellationToken* cancel =
      options.cancel != nullptr ? options.cancel : &local_cancel;

  std::vector<Result<ExplanationSubgraph>> results(items.size(),
                                                   NotAttempted());
  std::vector<char> attempted(items.size(), 0);
  std::vector<char> resumed(items.size(), 0);
  {
    ThreadPool pool(options.num_threads);
    // One solver per worker slot would need worker ids; per-item solvers
    // are cheap relative to the explain work itself.
    pool.ParallelFor(
        items.size(),
        [&](size_t i) {
          if (cancel->cancelled()) return;
          attempted[i] = 1;
          const WorkItem& item = items[i];
          if (options.checkpoint != nullptr) {
            if (const ExplanationSubgraph* saved =
                    options.checkpoint->Find(item.label, item.graph_index)) {
              resumed[i] = 1;
              results[i] = *saved;
              return;
            }
          }
          ApproxGvex solver(&model, config);
          results[i] = solver.ExplainGraph(db.graph(item.graph_index),
                                           item.graph_index, item.label);
          if (results[i].ok() && options.checkpoint != nullptr) {
            Status journal =
                options.checkpoint->Append(item.label, *results[i]);
            if (!journal.ok()) {
              // Durability is part of the contract: treat a failed append
              // as a hard item failure so the run stops instead of
              // claiming un-journaled progress.
              results[i] = journal;
            }
          }
          if (!results[i].ok() && !IsSkippableMiss(results[i].status())) {
            cancel->RequestCancel(results[i].status());
          }
        },
        cancel);
  }

  // ---- failure aggregation ---------------------------------------------------
  std::vector<std::string> failures;
  size_t not_attempted = 0;
  size_t done = 0;
  for (size_t i = 0; i < items.size(); ++i) {
    if (!attempted[i]) {
      ++not_attempted;
      continue;
    }
    if (results[i].ok() || IsSkippableMiss(results[i].status())) {
      ++done;
      continue;
    }
    failures.push_back(StrFormat("graph %zu/label %d: %s",
                                 items[i].graph_index, int(items[i].label),
                                 results[i].status().ToString().c_str()));
  }
  if (options.report != nullptr) options.report->not_attempted = not_attempted;

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
    // The cancellation cause is the first hard failure; reuse its code so
    // callers can still dispatch on it.
    return Status(cancel->cancelled() ? cancel->cause().code()
                                      : StatusCode::kInternal,
                  std::move(msg));
  }
  if (not_attempted > 0) {
    // Stopped without an internal failure: the token's deadline passed,
    // or the caller cancelled it.
    Status cause = cancel->cause();
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
      ++stats.attempted;
      if (!results[i].ok()) {
        const Status& st = results[i].status();
        if (st.IsInfeasible()) {
          ++stats.infeasible;
        } else {
          ++stats.invalid;
        }
        GVEX_LOG(Warning) << "label " << l << ": graph "
                          << items[i].graph_index
                          << " contributed no subgraph: " << st.ToString();
        continue;
      }
      if (resumed[i]) ++stats.resumed;
      ++stats.explained;
      view.explainability += results[i]->explainability;
      view.subgraphs.push_back(std::move(*results[i]));
    }
    std::sort(view.subgraphs.begin(), view.subgraphs.end(),
              [](const ExplanationSubgraph& a, const ExplanationSubgraph& b) {
                return a.graph_index < b.graph_index;
              });
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

Result<ExplanationViewSet> ParallelApproxExplain(
    const GcnClassifier& model, const GraphDatabase& db,
    const std::vector<ClassLabel>& assigned,
    const std::vector<ClassLabel>& labels, const Configuration& config,
    size_t num_threads) {
  ParallelExplainOptions options;
  options.num_threads = num_threads;
  return ParallelApproxExplain(model, db, assigned, labels, config, options);
}

}  // namespace gvex
