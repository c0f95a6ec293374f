// gvex::ingest — the live write path of the serving tier: a resident
// StreamGVEX solver (one per label) behind the ExplanationServer, fed by
// kIngest requests on a dedicated worker thread.
//
// Architecture (DESIGN.md §15):
//
//   kIngest --> IngestManager::Submit (admission-bounded, cancellable)
//                 |  dedicated worker — never the shared query queue
//                 v
//           journal (WAL) --> StreamGvex::IngestGraph (resident state)
//                 |                   |
//          cadence checkpoints   sliding drift window
//                                      |
//                         drift >= threshold? cut gvexbundle
//                                      |
//                    ViewRegistry::InstallBundle (atomic hot-swap)
//                                      |
//                 optional FanOutPublish / ShardedPublish to followers
//
// Drift is the freshness signal: over a sliding window of recently
// ingested graphs, the fraction the resident views explain but the
// currently-served generation's patterns do not match (coverage delta),
// weighted alongside the explainability those graphs would contribute
// (influence delta). When the coverage delta crosses the threshold, the
// manager finalizes the resident views (ReducePatterns) into a bundle
// and publishes it through the registry's existing hot-swap — queries
// stay byte-identical to the old generation until the swap, then to the
// new one. Staleness seconds and drift at swap are the explanation-
// freshness SLO, recorded as "ingest.*" counters/histograms and measured
// end to end by bench_ingest.
//
// Crash-resume contract: every accepted graph hits the journal before
// the solver, and solver state checkpoints ride the same journal every
// `checkpoint_cadence` graphs. On restart with `resume`, each label's
// solver is restored from its newest checkpoint and the graph records
// past it are replayed in sequence order; StreamGVEX commits at graph
// boundaries and streams nodes deterministically, so the rebuilt
// resident views — and any bundle cut from them — are byte-identical to
// an uninterrupted run (equal content fingerprints; pinned by
// ingest_test.cc and the ingest smoke leg).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gvex/cluster/publisher.h"
#include "gvex/cluster/shard_map.h"
#include "gvex/common/cancellation.h"
#include "gvex/common/result.h"
#include "gvex/explain/config.h"
#include "gvex/explain/stream_gvex.h"
#include "gvex/ingest/journal.h"
#include "gvex/serve/protocol.h"
#include "gvex/serve/view_registry.h"

namespace gvex {
namespace ingest {

struct IngestOptions {
  std::string route = cluster::kDefaultRoute;
  /// Admission bound of the dedicated ingest queue; kIngest requests
  /// beyond it are shed with kOverloaded.
  size_t max_pending = 64;
  /// Auto-publish when the window coverage delta reaches this fraction.
  double drift_threshold = 0.25;
  /// Sliding window of recently ingested graphs the drift is computed on.
  size_t drift_window = 16;
  /// Graphs between solver-state checkpoints in the journal, per label.
  size_t checkpoint_cadence = 8;
  /// Journal path ("" = no journal: ingest is in-memory only and a crash
  /// loses the resident state).
  std::string journal_path;
  /// Restore from an existing journal instead of truncating it.
  bool resume = false;
  /// Solver configuration for the resident StreamGvex instances.
  Configuration config;
  /// Fan-out after a local install: every auto-published bundle is also
  /// shipped to these followers (publisher.h), or sliced over the shard
  /// map when one is set. Fan-out failures are counted and logged but
  /// never roll back the local swap.
  std::vector<serve::Endpoint> targets;
  std::shared_ptr<const cluster::ShardMap> shard_map;
  cluster::PublishOptions publish;
};

/// Point-in-time ingest state for kHealth rows, stats, and the CLI.
struct IngestInfo {
  bool running = false;
  uint64_t pending = 0;
  uint64_t accepted = 0;
  uint64_t duplicates = 0;
  uint64_t infeasible = 0;
  uint64_t errors = 0;
  uint64_t published = 0;
  uint64_t replayed = 0;
  uint64_t resident_graphs = 0;
  uint64_t next_seq = 1;
  uint64_t generation = 0;  ///< last locally published generation
  double drift = 0.0;       ///< current window coverage delta
  double influence_delta = 0.0;
  uint64_t staleness_ms = 0;  ///< since the last publish (or Start)
};

class IngestManager {
 public:
  /// `registry` receives the auto-published generations; `model` is the
  /// classifier the resident solvers explain against (required).
  IngestManager(serve::ViewRegistry* registry,
                std::shared_ptr<const GcnClassifier> model,
                IngestOptions options);
  ~IngestManager();

  IngestManager(const IngestManager&) = delete;
  IngestManager& operator=(const IngestManager&) = delete;

  /// Open/replay the journal and spawn the ingest worker. Not idempotent.
  Status Start();

  /// Stop accepting, fail queued items, join the worker. Idempotent.
  void Stop();

  /// Admission point for kIngest. The future resolves when the dedicated
  /// worker has journaled and processed the graph (or immediately on
  /// shed/reject). `req.id` doubles as the idempotency key: a non-zero id
  /// already journaled answers "duplicate" without re-feeding, which is
  /// what makes client retries across a server crash safe. Control verbs
  /// ride the same entry point: no graph + text "publish" forces a bundle
  /// cut, text "status" reports IngestInfo.
  std::future<serve::Response> Submit(serve::Request req);

  /// Force a cut+publish of the resident views (runs on the worker).
  /// Returns the new local generation.
  Result<uint64_t> PublishNow();

  IngestInfo Info() const;
  const IngestOptions& options() const { return options_; }

 private:
  struct WindowEntry {
    ClassLabel label = -1;
    Graph graph;
    double explainability = 0.0;
  };

  struct Item {
    enum class Kind { kGraph, kPublish, kStatus };
    Kind kind = Kind::kGraph;
    serve::Request req;
    std::promise<serve::Response> promise;
    CancellationToken cancel;  ///< carries the request's deadline
  };

  void WorkerLoop();
  serve::Response ProcessGraph(const serve::Request& req);
  serve::Response ProcessPublish(const serve::Request& req);
  serve::Response ProcessStatus(const serve::Request& req);
  /// Worker-thread only: solver for `label`, created on first sight.
  StreamGvex* SolverFor(ClassLabel label);
  /// Worker-thread only (and Start's replay): feed one journaled graph to
  /// its label's solver. An accepted graph enters the drift window; it and
  /// an infeasible one count as resident, in the shared stats.
  Status Feed(const Graph& graph, uint64_t seq, ClassLabel label);
  /// Worker-thread only: recompute window drift against the currently-
  /// served generation and store it for Info().
  void UpdateDrift();
  /// Worker-thread only: cut + install + optional fan-out. Returns the
  /// new local generation.
  Result<uint64_t> Publish();
  Status ReplayJournal();
  std::string FormatDriftBp() const;

  serve::ViewRegistry* registry_;
  std::shared_ptr<const GcnClassifier> model_;
  IngestOptions options_;

  // Worker-owned state (no lock: only the ingest worker touches it after
  // Start's replay).
  std::map<ClassLabel, std::unique_ptr<StreamGvex>> solvers_;
  std::unique_ptr<IngestJournal> journal_;
  std::set<uint64_t> seen_ids_;
  std::deque<WindowEntry> window_;
  std::atomic<uint64_t> next_seq_{1};  ///< written by worker, read by Info()
  uint64_t accepted_since_publish_ = 0;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::unique_ptr<Item>> queue_;
  bool started_ = false;
  bool stopping_ = false;
  // Shared stats, guarded by mu_.
  uint64_t accepted_ = 0;
  uint64_t duplicates_ = 0;
  uint64_t infeasible_ = 0;
  uint64_t errors_ = 0;
  uint64_t published_ = 0;
  uint64_t replayed_ = 0;
  uint64_t resident_graphs_ = 0;
  uint64_t last_generation_ = 0;
  double drift_ = 0.0;
  double influence_delta_ = 0.0;
  std::chrono::steady_clock::time_point last_publish_{};

  std::thread worker_;
};

}  // namespace ingest
}  // namespace gvex
