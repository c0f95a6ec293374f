// Serialization of StreamGvexSnapshot — the resumable state of a
// StreamGVEX run (stream_gvex.h) — so the live-ingest journal
// (gvex/ingest/journal.h) can checkpoint the resident solver and a
// restarted server can restore it bit-exactly.
//
// The encoding reuses the view/graph record writers (view_io.h,
// graph_io.h) and their round-trip-exact numbers, so a written snapshot
// restores to state that re-serializes byte-identically. Canonical codes are written
// sorted: the in-memory set is unordered, and stable bytes keep journal
// checkpoints reproducible across runs.
#pragma once

#include "gvex/common/result.h"
#include "gvex/common/text_codec.h"
#include "gvex/explain/stream_gvex.h"

namespace gvex {

Status WriteStreamSnapshot(const StreamGvexSnapshot& snap, TextWriter* out);
Result<StreamGvexSnapshot> ReadStreamSnapshot(TextReader* in);

}  // namespace gvex
