#include "gvex/explain/view_io.h"

#include "gvex/common/failpoint.h"
#include "gvex/common/io_util.h"
#include "gvex/graph/graph_io.h"

namespace gvex {

namespace {
constexpr const char* kMagicV2 = "gvexviews-v2";
constexpr const char* kEndTag = "gvexviews-end";

Status WriteViewRecord(const ExplanationView& view, TextWriter* out) {
  *out << "view " << view.label << " " << view.patterns.size() << " "
       << view.subgraphs.size() << " " << view.explainability << "\n";
  for (const Graph& p : view.patterns) {
    GVEX_RETURN_NOT_OK(WriteGraph(p, out));
  }
  for (const ExplanationSubgraph& s : view.subgraphs) {
    GVEX_RETURN_NOT_OK(WriteExplanationSubgraph(s, out));
  }
  return Status::OK();
}

Result<ExplanationView> ReadViewRecord(TextReader* in) {
  std::string_view tag;
  ExplanationView view;
  size_t num_patterns = 0, num_subgraphs = 0;
  if (!(*in >> tag >> view.label >> num_patterns >> num_subgraphs >>
        view.explainability) ||
      tag != "view") {
    return Status::IoError("bad view header");
  }
  GVEX_RETURN_NOT_OK(
      in->CheckCount(num_patterns, kMinGraphRecordBytes, "view pattern"));
  GVEX_RETURN_NOT_OK(
      in->CheckCount(num_subgraphs, kMinSubgraphRecordBytes, "view subgraph"));
  view.patterns.reserve(num_patterns);
  for (size_t p = 0; p < num_patterns; ++p) {
    GVEX_ASSIGN_OR_RETURN(Graph pattern, ReadGraph(in));
    view.patterns.push_back(std::move(pattern));
  }
  view.subgraphs.reserve(num_subgraphs);
  for (size_t s = 0; s < num_subgraphs; ++s) {
    GVEX_ASSIGN_OR_RETURN(ExplanationSubgraph sub, ReadExplanationSubgraph(in));
    view.subgraphs.push_back(std::move(sub));
  }
  return view;
}

}  // namespace

Status WriteExplanationSubgraph(const ExplanationSubgraph& s,
                                TextWriter* out) {
  *out << "sub " << s.graph_index << " " << s.nodes.size() << " "
       << s.explainability;
  for (NodeId v : s.nodes) *out << " " << v;
  *out << "\n";
  return WriteGraph(s.subgraph, out);
}

Result<ExplanationSubgraph> ReadExplanationSubgraph(TextReader* in) {
  std::string_view tag;
  ExplanationSubgraph sub;
  size_t num_nodes = 0;
  if (!(*in >> tag >> sub.graph_index >> num_nodes >> sub.explainability) ||
      tag != "sub") {
    return Status::IoError("bad subgraph header");
  }
  // A node id takes at least 2 bytes (" 0").
  GVEX_RETURN_NOT_OK(in->CheckCount(num_nodes, 2, "subgraph node"));
  sub.nodes.resize(num_nodes);
  for (NodeId& v : sub.nodes) {
    if (!(*in >> v)) return Status::IoError("bad subgraph node id");
  }
  GVEX_ASSIGN_OR_RETURN(sub.subgraph, ReadGraph(in));
  return sub;
}

Status WriteViewSet(const ExplanationViewSet& set, TextWriter* out) {
  GVEX_FAILPOINT_RETURN("view_io.write");
  *out << kMagicV2 << "\n" << set.views.size() << "\n";
  for (const ExplanationView& view : set.views) {
    TextWriter rec;
    GVEX_RETURN_NOT_OK(WriteViewRecord(view, &rec));
    WriteSection(out, rec.str());
  }
  *out << kEndTag << " " << set.views.size() << "\n";
  return Status::OK();
}

Result<ExplanationViewSet> ReadViewSet(TextReader* in) {
  GVEX_FAILPOINT_RETURN("view_io.read");
  std::string_view magic;
  if (!(*in >> magic) || magic != kMagicV2) {
    return Status::IoError("bad view-set magic");
  }
  size_t num_views = 0;
  if (!(*in >> num_views)) return Status::IoError("bad view count");
  GVEX_RETURN_NOT_OK(in->CheckCount(num_views, kMinSectionBytes, "view"));
  ExplanationViewSet set;
  set.views.reserve(num_views);
  for (size_t vi = 0; vi < num_views; ++vi) {
    GVEX_ASSIGN_OR_RETURN(std::string_view payload, ReadSection(in));
    TextReader rec(payload);
    GVEX_ASSIGN_OR_RETURN(ExplanationView view, ReadViewRecord(&rec));
    set.views.push_back(std::move(view));
  }
  std::string_view tag;
  size_t n_end = 0;
  if (!(*in >> tag >> n_end) || tag != kEndTag || n_end != num_views) {
    return Status::IoError("view-set end marker missing (truncated file?)");
  }
  return set;
}

Status SaveViewSet(const ExplanationViewSet& set, const std::string& path) {
  return RetryIo([&] {
    return AtomicSave(path,
                      [&](TextWriter* out) { return WriteViewSet(set, out); });
  });
}

Result<ExplanationViewSet> LoadViewSet(const std::string& path) {
  GVEX_ASSIGN_OR_RETURN(std::string bytes, ReadFile(path));
  TextReader in(bytes);
  return ReadViewSet(&in);
}

}  // namespace gvex
