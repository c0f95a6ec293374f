#include "gvex/explain/checkpoint.h"

#include "gvex/common/failpoint.h"
#include "gvex/explain/view_io.h"
#include "gvex/obs/obs.h"

namespace gvex {

namespace {
constexpr const char* kMagic = "gvexckpt-v2";
}  // namespace

Result<std::unique_ptr<ExplanationCheckpoint>> ExplanationCheckpoint::Open(
    const std::string& path, bool resume) {
  std::unique_ptr<ExplanationCheckpoint> ckpt(new ExplanationCheckpoint);
  ckpt->path_ = path;
  auto replay = [&](std::string_view payload) -> Status {
    TextReader rec(payload);
    std::string_view tag;
    ClassLabel label = -1;
    if (!(rec >> tag >> label) || tag != "rec") {
      return Status::IoError("malformed record");
    }
    GVEX_ASSIGN_OR_RETURN(ExplanationSubgraph sub,
                          ReadExplanationSubgraph(&rec));
    const size_t gi = sub.graph_index;
    ckpt->records_[{label, gi}] = std::move(sub);
    return Status::OK();
  };
  GVEX_ASSIGN_OR_RETURN(
      ckpt->file_,
      JournalFile::Open(path, "checkpoint", kMagic, resume, replay));
  ckpt->loaded_count_ = ckpt->records_.size();
  return ckpt;
}

const ExplanationSubgraph* ExplanationCheckpoint::Find(
    ClassLabel label, size_t graph_index) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = records_.find({label, graph_index});
  return it == records_.end() ? nullptr : &it->second;
}

Status ExplanationCheckpoint::Append(ClassLabel label,
                                     const ExplanationSubgraph& sub) {
  // Fires *before* any bytes reach the file: a simulated crash leaves the
  // journal valid, exactly like a real kill between records.
  GVEX_FAILPOINT_RETURN("checkpoint.append");
  GVEX_COUNTER_INC("checkpoint.appends");
  GVEX_LATENCY_US("checkpoint.append_us");
  TextWriter rec;
  rec << "rec " << label << "\n";
  GVEX_RETURN_NOT_OK(WriteExplanationSubgraph(sub, &rec));
  std::lock_guard<std::mutex> lock(mu_);
  GVEX_RETURN_NOT_OK(file_->Append(rec.str()));
  records_[{label, sub.graph_index}] = sub;
  return Status::OK();
}

}  // namespace gvex
