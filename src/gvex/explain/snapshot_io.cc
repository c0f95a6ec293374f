#include "gvex/explain/snapshot_io.h"

#include <algorithm>
#include <string>
#include <vector>

#include "gvex/explain/view_io.h"
#include "gvex/graph/graph_io.h"

namespace gvex {
namespace {

constexpr const char* kMagic = "gvexsnap-v1";

// The fewest bytes one "code <len>\n<bytes>\n" record takes.
constexpr size_t kMinCodeRecordBytes = 8;

}  // namespace

Status WriteStreamSnapshot(const StreamGvexSnapshot& snap, TextWriter* out) {
  *out << kMagic << "\n";
  *out << "state " << (snap.in_progress ? 1 : 0) << " " << snap.label << " "
       << snap.graphs_done << "\n";
  *out << "stats " << snap.stats.nodes_processed << " " << snap.stats.accepts
       << " " << snap.stats.swaps << " " << snap.stats.skips << " "
       << snap.stats.everify_calls << " " << snap.stats.graphs_explained << " "
       << snap.stats.graphs_infeasible << "\n";
  *out << "view " << snap.partial.label << " " << snap.partial.explainability
       << " " << snap.partial.subgraphs.size() << " "
       << snap.partial.patterns.size() << "\n";
  for (const auto& sub : snap.partial.subgraphs) {
    GVEX_RETURN_NOT_OK(WriteExplanationSubgraph(sub, out));
  }
  for (const auto& p : snap.partial.patterns) {
    GVEX_RETURN_NOT_OK(WriteGraph(p, out));
  }
  *out << "patterns " << snap.patterns.size() << "\n";
  for (const auto& p : snap.patterns) {
    GVEX_RETURN_NOT_OK(WriteGraph(p, out));
  }
  // Sorted for stable bytes: the live set is unordered, and membership is
  // all that matters to the solver.
  std::vector<std::string> codes = snap.codes;
  std::sort(codes.begin(), codes.end());
  *out << "codes " << codes.size() << "\n";
  for (const auto& c : codes) {
    *out << "code ";
    out->Blob(c);
  }
  *out << "end\n";
  return Status::OK();
}

Result<StreamGvexSnapshot> ReadStreamSnapshot(TextReader* in) {
  std::string_view word;
  if (!(*in >> word) || word != kMagic) {
    return Status::IoError("snapshot: bad magic");
  }
  StreamGvexSnapshot snap;
  int in_progress = 0;
  if (!(*in >> word >> in_progress >> snap.label >> snap.graphs_done) ||
      word != "state") {
    return Status::IoError("snapshot: malformed state record");
  }
  snap.in_progress = in_progress != 0;
  if (!(*in >> word >> snap.stats.nodes_processed >> snap.stats.accepts >>
        snap.stats.swaps >> snap.stats.skips >> snap.stats.everify_calls >>
        snap.stats.graphs_explained >> snap.stats.graphs_infeasible) ||
      word != "stats") {
    return Status::IoError("snapshot: malformed stats record");
  }
  size_t nsubs = 0, nvpats = 0;
  if (!(*in >> word >> snap.partial.label >> snap.partial.explainability >>
        nsubs >> nvpats) ||
      word != "view") {
    return Status::IoError("snapshot: malformed view record");
  }
  GVEX_RETURN_NOT_OK(
      in->CheckCount(nsubs, kMinSubgraphRecordBytes, "snapshot subgraph"));
  snap.partial.subgraphs.reserve(nsubs);
  for (size_t i = 0; i < nsubs; ++i) {
    GVEX_ASSIGN_OR_RETURN(ExplanationSubgraph sub,
                          ReadExplanationSubgraph(in));
    snap.partial.subgraphs.push_back(std::move(sub));
  }
  GVEX_RETURN_NOT_OK(
      in->CheckCount(nvpats, kMinGraphRecordBytes, "snapshot view pattern"));
  snap.partial.patterns.reserve(nvpats);
  for (size_t i = 0; i < nvpats; ++i) {
    GVEX_ASSIGN_OR_RETURN(Graph p, ReadGraph(in));
    snap.partial.patterns.push_back(std::move(p));
  }
  size_t npats = 0;
  if (!(*in >> word >> npats) || word != "patterns") {
    return Status::IoError("snapshot: malformed patterns record");
  }
  GVEX_RETURN_NOT_OK(
      in->CheckCount(npats, kMinGraphRecordBytes, "snapshot pattern"));
  snap.patterns.reserve(npats);
  for (size_t i = 0; i < npats; ++i) {
    GVEX_ASSIGN_OR_RETURN(Graph p, ReadGraph(in));
    snap.patterns.push_back(std::move(p));
  }
  size_t ncodes = 0;
  if (!(*in >> word >> ncodes) || word != "codes") {
    return Status::IoError("snapshot: malformed codes record");
  }
  GVEX_RETURN_NOT_OK(
      in->CheckCount(ncodes, kMinCodeRecordBytes, "snapshot code"));
  snap.codes.reserve(ncodes);
  for (size_t i = 0; i < ncodes; ++i) {
    std::string_view code;
    if (!(*in >> word) || word != "code") {
      return Status::IoError("snapshot: malformed code record");
    }
    if (!in->Blob(&code)) {
      return Status::IoError("snapshot: truncated code payload");
    }
    snap.codes.emplace_back(code);
  }
  if (!(*in >> word) || word != "end") {
    return Status::IoError("snapshot: missing end marker");
  }
  return snap;
}

}  // namespace gvex
