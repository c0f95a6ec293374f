// Serialization of explanation views, so generated views can be stored,
// shipped to analysts, and queried later without re-running the solvers
// (views are materialized structures — the database-views heritage of the
// paper).
//
// The format is v2 (per-view CRC32 sections + end marker; DESIGN.md §6).
// SaveViewSet is atomic (temp + rename) and retries transient IO errors. It
// refuses a set with two views of one label (kInvalidArgument, nothing
// written): ViewRegistry would refuse that file.
#pragma once

#include <string>

#include "gvex/common/result.h"
#include "gvex/common/text_codec.h"
#include "gvex/explain/view.h"

namespace gvex {

Status WriteViewSet(const ExplanationViewSet& set, TextWriter* out);
Result<ExplanationViewSet> ReadViewSet(TextReader* in);

Status SaveViewSet(const ExplanationViewSet& set, const std::string& path);
Result<ExplanationViewSet> LoadViewSet(const std::string& path);

/// One "sub ..." record (node list + induced subgraph). Shared with the
/// checkpoint journal so a journaled subgraph restores bit-exactly.
Status WriteExplanationSubgraph(const ExplanationSubgraph& sub,
                                TextWriter* out);
Result<ExplanationSubgraph> ReadExplanationSubgraph(TextReader* in);

/// The fewest bytes one "sub" record takes ("sub 0 0 0\n" plus a graph
/// record), for bounding a count of subgraphs by the bytes left.
inline constexpr size_t kMinSubgraphRecordBytes = 36;

}  // namespace gvex
