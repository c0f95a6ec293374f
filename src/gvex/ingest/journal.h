// Append-only journal for the live-ingest subsystem (gvex::ingest): a
// write-ahead log of every ingested graph plus periodic StreamGvex state
// checkpoints, so a kill -9'd server resumes ingest exactly where it
// stopped.
//
// Layout and resume are the explanation checkpoint's (explain/checkpoint.h),
// through the same JournalFile (common/io_util.h): a magic line followed
// by CRC32-framed records, with a torn tail cut off on resume. Two record
// kinds:
//
//   graph <seq> <client_id> <label>\n<gvexgraph-v1 bytes>
//     — one accepted ingest, journaled *before* it reaches the solver.
//   ckpt <seq> <label>\n<gvexsnap-v1 bytes>
//     — the resident solver state for `label` after the graph with
//       sequence `seq`, written every `cadence` graphs per label.
//
// Resume restores each label's solver from its newest checkpoint and
// replays only the graph records past it; because StreamGVEX commits
// state at graph boundaries and streams nodes in a fixed order, the
// rebuilt resident views are byte-identical to an uninterrupted run
// (pinned by ingest_test.cc and the ingest smoke leg).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "gvex/common/io_util.h"
#include "gvex/common/result.h"
#include "gvex/common/text_codec.h"
#include "gvex/explain/stream_gvex.h"
#include "gvex/graph/graph.h"

namespace gvex {
namespace ingest {

/// One journaled ingest, in append order.
struct IngestRecord {
  uint64_t seq = 0;        ///< server-assigned, dense per journal
  uint64_t client_id = 0;  ///< client idempotency key (0 = unkeyed)
  ClassLabel label = -1;
  Graph graph;
};

/// Everything a resume loads: the newest checkpoint per label, every
/// graph record in order, and the dedup set of client ids.
struct IngestReplay {
  /// label -> (seq of the checkpointed graph, solver state).
  std::map<ClassLabel, std::pair<uint64_t, StreamGvexSnapshot>> checkpoints;
  std::vector<IngestRecord> graphs;
  std::set<uint64_t> client_ids;
  uint64_t next_seq = 1;  ///< one past the highest journaled seq
};

class IngestJournal {
 public:
  /// Open a journal at `path`. With `resume`, existing records are loaded
  /// (a torn tail is cut off) and later appends extend the file; without,
  /// any existing file is truncated.
  static Result<std::unique_ptr<IngestJournal>> Open(const std::string& path,
                                                     bool resume);

  /// Journal one accepted graph. Flushed before returning — this is the
  /// WAL entry the crash-resume contract depends on. Fails closed.
  /// Failpoint: "ingest.journal_append".
  Status AppendGraph(uint64_t seq, uint64_t client_id, ClassLabel label,
                     const Graph& g);

  /// Journal a solver-state checkpoint (cadence handled by the caller).
  Status AppendCheckpoint(uint64_t seq, ClassLabel label,
                          const StreamGvexSnapshot& snap);

  /// Records loaded at Open time. Valid for the journal's lifetime.
  const IngestReplay& replay() const { return replay_; }
  const std::string& path() const { return path_; }

 private:
  IngestJournal() = default;

  /// Parse one record into replay_.
  Status ReplayRecord(std::string_view payload);

  mutable std::mutex mu_;
  std::string path_;
  std::unique_ptr<JournalFile> file_;
  IngestReplay replay_;
};

}  // namespace ingest
}  // namespace gvex
