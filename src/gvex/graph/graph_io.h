// Plain-text serialization of graphs and graph databases, so generated
// datasets and explanation views can be saved, inspected, and reloaded.
//
// The format is v2: a magic/count header, one CRC32-framed section per
// graph record, and an end marker so truncation is detected (DESIGN.md
// §6). Save* goes through write-to-temp + rename (atomic) with retry on
// transient IO errors.
#pragma once

#include <string>

#include "gvex/common/result.h"
#include "gvex/common/text_codec.h"
#include "gvex/graph/graph_db.h"

namespace gvex {

/// Write a database in the gvex v2 sectioned format.
Status WriteDatabase(const GraphDatabase& db, TextWriter* out);
Status SaveDatabase(const GraphDatabase& db, const std::string& path);

/// Read a database back; any magic but gvexdb-v2 is rejected.
Result<GraphDatabase> ReadDatabase(TextReader* in);
Result<GraphDatabase> LoadDatabase(const std::string& path);

/// The graph record ("gvexgraph-v1", a meta line, node lines, edge
/// lines) that every format embeds: databases, views, subgraphs, stream
/// snapshots, the ingest WAL and the wire. Integrity comes from the
/// enclosing section's CRC or the wire frame's.
Status WriteGraph(const Graph& g, TextWriter* out);
Result<Graph> ReadGraph(TextReader* in);

/// The fewest bytes one graph record takes ("gvexgraph-v1\nmeta 0 0 0 0\n"),
/// for bounding a count of graphs by the bytes left.
inline constexpr size_t kMinGraphRecordBytes = 26;

}  // namespace gvex
