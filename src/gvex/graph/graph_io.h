// Plain-text serialization of graphs and graph databases, so generated
// datasets and explanation views can be saved, inspected, and reloaded.
//
// The format is v2: a magic/count header, one CRC32-framed section per
// graph record, and an end marker so truncation is detected (DESIGN.md
// §6). Save* goes through write-to-temp + rename (atomic) with retry on
// transient IO errors.
#pragma once

#include <iosfwd>
#include <string>

#include "gvex/common/result.h"
#include "gvex/graph/graph_db.h"

namespace gvex {

/// Write a database in the gvex v2 sectioned format.
Status WriteDatabase(const GraphDatabase& db, std::ostream* out);
Status SaveDatabase(const GraphDatabase& db, const std::string& path);

/// Read a database back; any magic but gvexdb-v2 is rejected.
Result<GraphDatabase> ReadDatabase(std::istream* in);
Result<GraphDatabase> LoadDatabase(const std::string& path);

/// Single-graph helpers (used for patterns / explanation subgraphs).
/// Graphs embedded inside container records keep the v1 record shape;
/// integrity is provided by the enclosing section's CRC.
Status WriteGraph(const Graph& g, std::ostream* out);
Result<Graph> ReadGraph(std::istream* in);

}  // namespace gvex
