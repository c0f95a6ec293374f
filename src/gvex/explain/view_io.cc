#include "gvex/explain/view_io.h"

#include <fstream>
#include <sstream>

#include "gvex/common/failpoint.h"
#include "gvex/common/io_util.h"
#include "gvex/graph/graph_io.h"

namespace gvex {

namespace {
constexpr const char* kMagicV2 = "gvexviews-v2";
constexpr const char* kEndTag = "gvexviews-end";

Status WriteViewRecord(const ExplanationView& view, std::ostream* out) {
  (*out) << "view " << view.label << " " << view.patterns.size() << " "
         << view.subgraphs.size() << " " << view.explainability << "\n";
  for (const Graph& p : view.patterns) {
    GVEX_RETURN_NOT_OK(WriteGraph(p, out));
  }
  for (const ExplanationSubgraph& s : view.subgraphs) {
    GVEX_RETURN_NOT_OK(WriteExplanationSubgraph(s, out));
  }
  return Status::OK();
}

Result<ExplanationView> ReadViewRecord(std::istream* in) {
  std::string tag;
  ExplanationView view;
  size_t num_patterns = 0, num_subgraphs = 0;
  if (!((*in) >> tag >> view.label >> num_patterns >> num_subgraphs >>
        view.explainability) ||
      tag != "view") {
    return Status::IoError("bad view header");
  }
  for (size_t p = 0; p < num_patterns; ++p) {
    GVEX_ASSIGN_OR_RETURN(Graph pattern, ReadGraph(in));
    view.patterns.push_back(std::move(pattern));
  }
  for (size_t s = 0; s < num_subgraphs; ++s) {
    GVEX_ASSIGN_OR_RETURN(ExplanationSubgraph sub, ReadExplanationSubgraph(in));
    view.subgraphs.push_back(std::move(sub));
  }
  return view;
}

}  // namespace

Status WriteExplanationSubgraph(const ExplanationSubgraph& s,
                                std::ostream* out) {
  (*out) << "sub " << s.graph_index << " " << s.nodes.size() << " "
         << s.explainability;
  for (NodeId v : s.nodes) (*out) << " " << v;
  (*out) << "\n";
  return WriteGraph(s.subgraph, out);
}

Result<ExplanationSubgraph> ReadExplanationSubgraph(std::istream* in) {
  std::string tag;
  ExplanationSubgraph sub;
  size_t num_nodes = 0;
  if (!((*in) >> tag >> sub.graph_index >> num_nodes >> sub.explainability) ||
      tag != "sub") {
    return Status::IoError("bad subgraph header");
  }
  sub.nodes.resize(num_nodes);
  for (NodeId& v : sub.nodes) {
    if (!((*in) >> v)) return Status::IoError("bad subgraph node id");
  }
  GVEX_ASSIGN_OR_RETURN(Graph g, ReadGraph(in));
  sub.subgraph = std::move(g);
  return sub;
}

Status WriteViewSet(const ExplanationViewSet& set, std::ostream* out) {
  GVEX_FAILPOINT_RETURN("view_io.write");
  SetMaxPrecision(out);
  (*out) << kMagicV2 << "\n" << set.views.size() << "\n";
  for (const ExplanationView& view : set.views) {
    std::ostringstream rec;
    SetMaxPrecision(&rec);
    GVEX_RETURN_NOT_OK(WriteViewRecord(view, &rec));
    GVEX_RETURN_NOT_OK(WriteSection(out, rec.str()));
  }
  (*out) << kEndTag << " " << set.views.size() << "\n";
  if (!out->good()) return Status::IoError("view stream write failed");
  return Status::OK();
}

Result<ExplanationViewSet> ReadViewSet(std::istream* in) {
  GVEX_FAILPOINT_RETURN("view_io.read");
  std::string magic;
  if (!((*in) >> magic) || magic != kMagicV2) {
    return Status::IoError("bad view-set magic");
  }
  size_t num_views = 0;
  if (!((*in) >> num_views)) return Status::IoError("bad view count");
  ExplanationViewSet set;
  for (size_t vi = 0; vi < num_views; ++vi) {
    GVEX_ASSIGN_OR_RETURN(std::string payload, ReadSection(in));
    std::istringstream rec(payload);
    GVEX_ASSIGN_OR_RETURN(ExplanationView view, ReadViewRecord(&rec));
    set.views.push_back(std::move(view));
  }
  std::string tag;
  size_t n_end = 0;
  if (!((*in) >> tag >> n_end) || tag != kEndTag || n_end != num_views) {
    return Status::IoError("view-set end marker missing (truncated file?)");
  }
  return set;
}

Status SaveViewSet(const ExplanationViewSet& set, const std::string& path) {
  return RetryIo([&] {
    return AtomicSave(path,
                      [&](std::ostream* out) { return WriteViewSet(set, out); });
  });
}

Result<ExplanationViewSet> LoadViewSet(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::IoError("cannot open " + path);
  return ReadViewSet(&in);
}

}  // namespace gvex
