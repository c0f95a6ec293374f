#include "gvex/graph/graph_io.h"

#include "gvex/common/failpoint.h"
#include "gvex/common/io_util.h"

namespace gvex {

namespace {
constexpr const char* kMagicV2 = "gvexdb-v2";
constexpr const char* kEndTag = "gvexdb-end";
constexpr const char* kGraphMagic = "gvexgraph-v1";

// The fewest bytes a node line ("n 0\n"), one feature value (" 0") and an
// edge line ("e 0 1 0\n") take.
constexpr size_t kMinNodeLineBytes = 4;
constexpr size_t kMinFeatureBytes = 2;
constexpr size_t kMinEdgeLineBytes = 8;

// One database record: the "g <label> <name>" line plus the graph body.
Status WriteDbRecord(const GraphDatabase& db, size_t i, TextWriter* out) {
  *out << "g " << db.label(i) << " "
       << (db.name(i).empty() ? "-" : db.name(i)) << "\n";
  return WriteGraph(db.graph(i), out);
}

Status ReadDbRecord(TextReader* in, GraphDatabase* db) {
  std::string_view tag, name;
  ClassLabel label = -1;
  if (!(*in >> tag >> label >> name) || tag != "g") {
    return Status::IoError("bad graph header");
  }
  GVEX_ASSIGN_OR_RETURN(Graph g, ReadGraph(in));
  db->Add(std::move(g), label, name == "-" ? "" : std::string(name));
  return Status::OK();
}

}  // namespace

Status WriteGraph(const Graph& g, TextWriter* out) {
  GVEX_FAILPOINT_RETURN("graph_io.write_graph");
  *out << kGraphMagic << "\n";
  *out << "meta " << g.num_nodes() << " " << g.num_edges() << " "
       << (g.directed() ? 1 : 0) << " "
       << (g.has_features() ? g.feature_dim() : 0) << "\n";
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    *out << "n " << g.node_type(v);
    if (g.has_features()) {
      for (float f : g.features().Row(v)) *out << " " << f;
    }
    *out << "\n";
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const auto& nb : g.neighbors(u)) {
      if (!g.directed() && nb.node < u) continue;
      *out << "e " << u << " " << nb.node << " " << nb.edge_type << "\n";
    }
  }
  return Status::OK();
}

Result<Graph> ReadGraph(TextReader* in) {
  GVEX_FAILPOINT_RETURN("graph_io.read_graph");
  std::string_view magic, tag;
  if (!(*in >> magic) || magic != kGraphMagic) {
    return Status::IoError("bad graph magic");
  }
  size_t n = 0, m = 0, directed = 0, fdim = 0;
  if (!(*in >> tag >> n >> m >> directed >> fdim) || tag != "meta") {
    return Status::IoError("bad graph meta line");
  }
  GVEX_RETURN_NOT_OK(in->CheckCount(n, kMinNodeLineBytes, "graph node"));
  GVEX_RETURN_NOT_OK(in->CheckGrid(n, fdim, kMinFeatureBytes, "graph feature"));
  Graph g(directed != 0);
  Matrix feats(n, fdim);
  for (size_t i = 0; i < n; ++i) {
    NodeType type = 0;
    if (!(*in >> tag >> type) || tag != "n") {
      return Status::IoError("bad node line");
    }
    g.AddNode(type);
    for (float& v : feats.Row(i)) {
      if (!(*in >> v)) return Status::IoError("bad feature value");
    }
  }
  GVEX_RETURN_NOT_OK(in->CheckCount(m, kMinEdgeLineBytes, "graph edge"));
  for (size_t k = 0; k < m; ++k) {
    NodeId u = 0, v = 0;
    EdgeType et = 0;
    if (!(*in >> tag >> u >> v >> et) || tag != "e") {
      return Status::IoError("bad edge line");
    }
    GVEX_RETURN_NOT_OK(g.AddEdge(u, v, et));
  }
  if (fdim > 0) {
    GVEX_RETURN_NOT_OK(g.SetFeatures(std::move(feats)));
  }
  return g;
}

Status WriteDatabase(const GraphDatabase& db, TextWriter* out) {
  GVEX_FAILPOINT_RETURN("graph_io.write_db");
  *out << kMagicV2 << "\n" << db.size() << "\n";
  for (size_t i = 0; i < db.size(); ++i) {
    TextWriter rec;
    GVEX_RETURN_NOT_OK(WriteDbRecord(db, i, &rec));
    WriteSection(out, rec.str());
  }
  *out << kEndTag << " " << db.size() << "\n";
  return Status::OK();
}

Status SaveDatabase(const GraphDatabase& db, const std::string& path) {
  return RetryIo([&] {
    return AtomicSave(path,
                      [&](TextWriter* out) { return WriteDatabase(db, out); });
  });
}

Result<GraphDatabase> ReadDatabase(TextReader* in) {
  GVEX_FAILPOINT_RETURN("graph_io.read_db");
  std::string_view magic;
  if (!(*in >> magic) || magic != kMagicV2) {
    return Status::IoError("bad database magic");
  }
  size_t m = 0;
  if (!(*in >> m)) return Status::IoError("bad graph count");
  GVEX_RETURN_NOT_OK(in->CheckCount(m, kMinSectionBytes, "database graph"));
  GraphDatabase db;
  for (size_t i = 0; i < m; ++i) {
    GVEX_ASSIGN_OR_RETURN(std::string_view payload, ReadSection(in));
    TextReader rec(payload);
    GVEX_RETURN_NOT_OK(ReadDbRecord(&rec, &db));
  }
  std::string_view tag;
  size_t m_end = 0;
  if (!(*in >> tag >> m_end) || tag != kEndTag || m_end != m) {
    return Status::IoError("database end marker missing (truncated file?)");
  }
  return db;
}

Result<GraphDatabase> LoadDatabase(const std::string& path) {
  GVEX_ASSIGN_OR_RETURN(std::string bytes, ReadFile(path));
  TextReader in(bytes);
  return ReadDatabase(&in);
}

}  // namespace gvex
