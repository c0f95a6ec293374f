#include "gvex/explain/checkpoint.h"

#include <fstream>

#include "gvex/common/failpoint.h"
#include "gvex/common/io_util.h"
#include "gvex/common/logging.h"
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

  bool have_valid_file = false;
  if (resume) {
    // A journal that cannot be read is treated like a missing one.
    Result<std::string> bytes = ReadFile(path);
    if (bytes.ok()) {
      TextReader in(*bytes);
      std::string_view magic;
      if (!(in >> magic) || magic != kMagic) {
        return Status::IoError("checkpoint " + path + " has a bad magic");
      }
      have_valid_file = true;
      while (!in.AtEnd()) {
        Result<std::string_view> payload = ReadSection(&in);
        if (!payload.ok()) {
          // A torn tail from a crash mid-append: keep the valid prefix,
          // drop the rest.
          GVEX_LOG(Warning)
              << "checkpoint " << path << ": discarding corrupt tail ("
              << payload.status().ToString() << ") after "
              << ckpt->records_.size() << " records";
          break;
        }
        TextReader rec(*payload);
        std::string_view tag;
        ClassLabel label = -1;
        if (!(rec >> tag >> label) || tag != "rec") {
          GVEX_LOG(Warning) << "checkpoint " << path
                            << ": malformed record, stopping replay";
          break;
        }
        Result<ExplanationSubgraph> sub = ReadExplanationSubgraph(&rec);
        if (!sub.ok()) {
          GVEX_LOG(Warning) << "checkpoint " << path
                            << ": unreadable record, stopping replay";
          break;
        }
        size_t gi = sub->graph_index;
        ckpt->records_[{label, gi}] = std::move(*sub);
      }
      ckpt->loaded_count_ = ckpt->records_.size();
    }
  }

  auto mode = have_valid_file ? (std::ios::out | std::ios::app)
                              : (std::ios::out | std::ios::trunc);
  ckpt->out_ = std::make_unique<std::ofstream>(path, mode);
  if (!ckpt->out_->is_open()) {
    return Status::IoError("cannot open checkpoint " + path);
  }
  if (!have_valid_file) {
    (*ckpt->out_) << kMagic << "\n";
    ckpt->out_->flush();
    if (!ckpt->out_->good()) {
      return Status::IoError("cannot initialize checkpoint " + path);
    }
  }
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
  TextWriter section;
  WriteSection(&section, rec.str());

  std::lock_guard<std::mutex> lock(mu_);
  out_->write(section.str().data(),
              static_cast<std::streamsize>(section.str().size()));
  out_->flush();
  if (!out_->good()) {
    return Status::IoError("checkpoint append to " + path_ + " failed");
  }
  records_[{label, sub.graph_index}] = sub;
  return Status::OK();
}

}  // namespace gvex
