// StreamGVEX (Algorithm 3): single-pass node-stream maintenance of
// explanation views with an anytime 1/4-approximation on the seen prefix.
//
// Per arriving node the algorithm maintains a bounded node cache V_S
// (Procedure 4, IncUpdateVS):
//   (a) below the u_l budget, accept;
//   (b) if the node adds no new pattern structure (IncPGen finds nothing
//       its local neighborhood contributes), skip;
//   (c) otherwise swap against the cheapest cached node v- only when the
//       replacement gain is at least twice the loss — the streaming
//       submodular-maximization rule that preserves the 1/4 ratio.
//
// Patterns are maintained incrementally (IncUpdateP): newly uncovered
// nodes trigger localized mining (IncPGen over the r-hop neighborhood),
// and at the end of each label group a reduction pass removes patterns
// that no longer contribute coverage — the batched equivalent of
// Procedure 5's swap, preserving full node coverage and small edge miss.
//
// C2 (consistency + counterfactual) is enforced at finalization by a swap
// repair, which trades cached nodes for pool nodes of V_u, and then by a
// saturated-model fallback that grows regions from the most salient nodes.
// Algorithm 3 line 10's lower-bound top-up from V_u has nothing to do:
// Procedure 4 adds to V_u only once V_S holds u_l nodes, so V_u is empty
// whenever V_S is short.
#pragma once

#include <string>
#include <unordered_set>
#include <vector>

#include "gvex/common/cancellation.h"
#include "gvex/common/result.h"
#include "gvex/explain/config.h"
#include "gvex/explain/everify.h"
#include "gvex/explain/psum.h"
#include "gvex/explain/view.h"
#include "gvex/gnn/model.h"
#include "gvex/graph/graph_db.h"

namespace gvex {

struct StreamGvexStats {
  size_t nodes_processed = 0;
  size_t accepts = 0;
  size_t swaps = 0;
  size_t skips = 0;
  size_t everify_calls = 0;
  size_t graphs_explained = 0;
  size_t graphs_infeasible = 0;
};

/// \brief Resumable state of an interrupted ExplainLabel call, committed
/// at graph boundaries: the finished subgraphs, the incremental pattern
/// state (patterns + canonical codes), and the stats as of the last
/// completed graph. Because each graph's node cache is rebuilt from its
/// own stream on resume, the restored run preserves Algorithm 3's anytime
/// 1/4-approximation on the seen prefix, and a resumed run finishes with
/// the same view and stats as a straight-through one.
struct StreamGvexSnapshot {
  bool in_progress = false;
  ClassLabel label = -1;
  size_t graphs_done = 0;  ///< position within the label group
  ExplanationView partial;
  std::vector<Graph> patterns;
  std::vector<std::string> codes;
  StreamGvexStats stats;
};

/// \brief The streaming solver. One instance may process many graphs;
/// pattern state accumulates per label within an Explain* call.
class StreamGvex {
 public:
  StreamGvex(const GcnClassifier* model, Configuration config)
      : model_(model), verifier_(model), config_(std::move(config)) {}

  const Configuration& config() const { return config_; }
  const StreamGvexStats& stats() const { return stats_; }

  /// Stream the nodes of `g` (in `order` if given, else 0..n-1) and return
  /// the maintained explanation subgraph. `patterns`/`codes` carry the
  /// label-level incremental pattern state across graphs.
  Result<ExplanationSubgraph> ExplainGraphStream(
      const Graph& g, size_t graph_index, ClassLabel l,
      std::vector<Graph>* patterns,
      std::unordered_set<std::string>* codes,
      const std::vector<NodeId>* order = nullptr);

  /// Views per label, as in ApproxGvex::Explain but via the stream path.
  Result<ExplanationView> ExplainLabel(
      const GraphDatabase& db, const std::vector<ClassLabel>& assigned,
      ClassLabel l, const CancellationToken* cancel = nullptr,
      uint64_t order_seed = 0);

  /// One view per label, in `labels` order. A label listed twice is
  /// kInvalidArgument before any work, as in ParallelApproxExplain.
  Result<ExplanationViewSet> Explain(
      const GraphDatabase& db, const std::vector<ClassLabel>& assigned,
      const std::vector<ClassLabel>& labels,
      const CancellationToken* cancel = nullptr, uint64_t order_seed = 0);

  /// Live ingest (gvex::ingest): feed one graph into the resident per-label
  /// state without a surrounding ExplainLabel call. The first call opens a
  /// resident session for `l`; later calls must carry the same label
  /// (kFailedPrecondition otherwise — one solver instance holds one label's
  /// incremental state). Accepted and infeasible graphs both advance the
  /// committed position, so Snapshot()/Restore() capture ingest state at
  /// graph granularity exactly as they do for an interrupted ExplainLabel.
  /// Nodes stream in natural order (0..n-1) so replaying the same graphs in
  /// the same order rebuilds byte-identical state. On success
  /// `explainability` (when given) receives the accepted subgraph's
  /// contribution.
  Status IngestGraph(const Graph& g, size_t graph_index, ClassLabel l,
                     double* explainability = nullptr);

  /// Finalized copy of the resident ingest state: the partial view with
  /// ReducePatterns applied, leaving the resident session untouched so
  /// ingest continues afterwards. kFailedPrecondition when no session is
  /// open.
  Result<ExplanationView> ResidentView() const;

  /// Graphs committed into the resident session (0 when none is open).
  size_t resident_graphs() const { return label_in_progress_ ? group_pos_ : 0; }

  /// True while an ExplainLabel resume point or ingest session is held.
  bool in_progress() const { return label_in_progress_; }

  /// Capture the resumable state of an ExplainLabel call that returned an
  /// error (deadline expiry, injected fault, ...). State is committed per
  /// completed graph; a half-processed graph is rolled back and replayed.
  StreamGvexSnapshot Snapshot() const;

  /// Restore a snapshot into a *fresh* solver (or one whose previous run
  /// completed). The next ExplainLabel call for the snapshot's label
  /// continues after the last completed graph instead of starting over.
  /// A solver that already holds resident state rejects the restore with
  /// kFailedPrecondition — silently merging two runs' pattern state would
  /// corrupt both.
  Status Restore(const StreamGvexSnapshot& snapshot);

 private:
  /// Starts a session for label l: empty partial view and pattern state,
  /// stats committed as they stand.
  void OpenSession(ClassLabel l);

  /// Folds one graph's outcome into the session. An explained graph joins
  /// the partial view (its contribution goes to `explainability` when
  /// given); an explained or infeasible graph advances the committed
  /// position and stats. Any other error rolls the stats back to the last
  /// committed graph, which replays in full. Returns the graph's status.
  Status CommitGraph(Result<ExplanationSubgraph> sub,
                     double* explainability = nullptr);

  /// `view` with the session's patterns reduced over its subgraphs: the
  /// batched Procedure 5 swap, which drops patterns that stopped
  /// contributing.
  ExplanationView Finalized(ExplanationView view) const;

  const GcnClassifier* model_;
  EVerify verifier_;
  Configuration config_;
  StreamGvexStats stats_;

  // Resume state for the in-flight ExplainLabel (see StreamGvexSnapshot).
  bool label_in_progress_ = false;
  ClassLabel resume_label_ = -1;
  size_t group_pos_ = 0;
  ExplanationView partial_view_;
  std::vector<Graph> label_patterns_;
  std::unordered_set<std::string> label_codes_;
  StreamGvexStats committed_stats_;
};

}  // namespace gvex
