#include "gvex/graph/graph_io.h"

#include <fstream>
#include <sstream>

#include "gvex/common/failpoint.h"
#include "gvex/common/io_util.h"
#include "gvex/common/string_util.h"

namespace gvex {

namespace {
constexpr const char* kMagicV2 = "gvexdb-v2";
constexpr const char* kEndTag = "gvexdb-end";
constexpr const char* kGraphMagic = "gvexgraph-v1";

// One database record: the "g <label> <name>" line plus the graph body.
Status WriteDbRecord(const GraphDatabase& db, size_t i, std::ostream* out) {
  (*out) << "g " << db.label(i) << " "
         << (db.name(i).empty() ? "-" : db.name(i)) << "\n";
  return WriteGraph(db.graph(i), out);
}

Status ReadDbRecord(std::istream* in, GraphDatabase* db) {
  std::string tag, name;
  ClassLabel label;
  if (!((*in) >> tag >> label >> name) || tag != "g") {
    return Status::IoError("bad graph header");
  }
  GVEX_ASSIGN_OR_RETURN(Graph g, ReadGraph(in));
  db->Add(std::move(g), label, name == "-" ? "" : name);
  return Status::OK();
}

Result<GraphDatabase> ReadDatabaseV2Body(std::istream* in) {
  size_t m = 0;
  if (!((*in) >> m)) return Status::IoError("bad graph count");
  GraphDatabase db;
  for (size_t i = 0; i < m; ++i) {
    GVEX_ASSIGN_OR_RETURN(std::string payload, ReadSection(in));
    std::istringstream rec(payload);
    GVEX_RETURN_NOT_OK(ReadDbRecord(&rec, &db));
  }
  std::string tag;
  size_t m_end = 0;
  if (!((*in) >> tag >> m_end) || tag != kEndTag || m_end != m) {
    return Status::IoError("database end marker missing (truncated file?)");
  }
  return db;
}

}  // namespace

Status WriteGraph(const Graph& g, std::ostream* out) {
  GVEX_FAILPOINT_RETURN("graph_io.write_graph");
  (*out) << kGraphMagic << "\n";
  (*out) << "meta " << g.num_nodes() << " " << g.num_edges() << " "
         << (g.directed() ? 1 : 0) << " "
         << (g.has_features() ? g.feature_dim() : 0) << "\n";
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    (*out) << "n " << g.node_type(v);
    if (g.has_features()) {
      for (size_t c = 0; c < g.feature_dim(); ++c) {
        (*out) << " " << g.features().At(v, c);
      }
    }
    (*out) << "\n";
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const auto& nb : g.neighbors(u)) {
      if (!g.directed() && nb.node < u) continue;
      (*out) << "e " << u << " " << nb.node << " " << nb.edge_type << "\n";
    }
  }
  if (!out->good()) return Status::IoError("stream write failed");
  return Status::OK();
}

Result<Graph> ReadGraph(std::istream* in) {
  GVEX_FAILPOINT_RETURN("graph_io.read_graph");
  std::string magic;
  if (!((*in) >> magic) || magic != kGraphMagic) {
    return Status::IoError("bad graph magic");
  }
  std::string tag;
  size_t n = 0, m = 0, directed = 0, fdim = 0;
  if (!((*in) >> tag >> n >> m >> directed >> fdim) || tag != "meta") {
    return Status::IoError("bad graph meta line");
  }
  Graph g(directed != 0);
  Matrix feats(n, fdim);
  for (size_t i = 0; i < n; ++i) {
    NodeType type;
    if (!((*in) >> tag >> type) || tag != "n") {
      return Status::IoError("bad node line");
    }
    g.AddNode(type);
    for (size_t c = 0; c < fdim; ++c) {
      float v;
      if (!((*in) >> v)) return Status::IoError("bad feature value");
      feats.At(i, c) = v;
    }
  }
  for (size_t k = 0; k < m; ++k) {
    NodeId u, v;
    EdgeType et;
    if (!((*in) >> tag >> u >> v >> et) || tag != "e") {
      return Status::IoError("bad edge line");
    }
    GVEX_RETURN_NOT_OK(g.AddEdge(u, v, et));
  }
  if (fdim > 0) {
    GVEX_RETURN_NOT_OK(g.SetFeatures(std::move(feats)));
  }
  return g;
}

Status WriteDatabase(const GraphDatabase& db, std::ostream* out) {
  GVEX_FAILPOINT_RETURN("graph_io.write_db");
  SetMaxPrecision(out);
  (*out) << kMagicV2 << "\n" << db.size() << "\n";
  for (size_t i = 0; i < db.size(); ++i) {
    std::ostringstream rec;
    SetMaxPrecision(&rec);
    GVEX_RETURN_NOT_OK(WriteDbRecord(db, i, &rec));
    GVEX_RETURN_NOT_OK(WriteSection(out, rec.str()));
  }
  (*out) << kEndTag << " " << db.size() << "\n";
  if (!out->good()) return Status::IoError("database stream write failed");
  return Status::OK();
}

Status SaveDatabase(const GraphDatabase& db, const std::string& path) {
  return RetryIo([&] {
    return AtomicSave(path,
                      [&](std::ostream* out) { return WriteDatabase(db, out); });
  });
}

Result<GraphDatabase> ReadDatabase(std::istream* in) {
  GVEX_FAILPOINT_RETURN("graph_io.read_db");
  std::string magic;
  if (!((*in) >> magic)) return Status::IoError("bad database magic");
  if (magic == kMagicV2) return ReadDatabaseV2Body(in);
  return Status::IoError("bad database magic");
}

Result<GraphDatabase> LoadDatabase(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::IoError("cannot open " + path);
  return ReadDatabase(&in);
}

}  // namespace gvex
