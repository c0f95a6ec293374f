// Append-only checkpoint journal for long explanation jobs: each completed
// per-graph ExplanationSubgraph is journaled as a CRC32-framed record, so
// a crashed ApproxGVEX / ParallelApproxExplain run resumes by skipping the
// graphs already explained instead of redoing hours of work. Records
// round-trip bit-exactly (max float precision), so a resumed run saves a
// byte-identical view set to an uninterrupted one.
//
// The journal is deliberately tolerant on load: a torn or corrupt tail
// (the crash wrote half a record) is cut off and the valid prefix used
// (JournalFile, common/io_util.h).
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "gvex/common/io_util.h"
#include "gvex/common/result.h"
#include "gvex/explain/view.h"

namespace gvex {

class ExplanationCheckpoint {
 public:
  /// Open a journal at `path`. With `resume`, existing records are loaded
  /// (a torn tail is cut off) and later appends extend the file; without,
  /// any existing file is truncated.
  static Result<std::unique_ptr<ExplanationCheckpoint>> Open(
      const std::string& path, bool resume);

  /// The journaled subgraph for (label, graph), or nullptr. The pointer
  /// stays valid for the checkpoint's lifetime (the map is append-only).
  const ExplanationSubgraph* Find(ClassLabel label, size_t graph_index) const;

  /// Journal one completed subgraph and flush it. Thread-safe; a record
  /// is either fully framed in the file or absent. Fails closed on IO
  /// errors so callers never believe unjournaled work is durable.
  Status Append(ClassLabel label, const ExplanationSubgraph& sub);

  /// Records loaded at Open time (resumed work).
  size_t loaded_count() const { return loaded_count_; }
  const std::string& path() const { return path_; }

 private:
  ExplanationCheckpoint() = default;

  mutable std::mutex mu_;
  std::string path_;
  std::unique_ptr<JournalFile> file_;
  size_t loaded_count_ = 0;
  std::map<std::pair<ClassLabel, size_t>, ExplanationSubgraph> records_;
};

}  // namespace gvex
