#include "gvex/ingest/journal.h"

#include "gvex/common/failpoint.h"
#include "gvex/common/io_util.h"
#include "gvex/common/logging.h"
#include "gvex/explain/snapshot_io.h"
#include "gvex/graph/graph_io.h"
#include "gvex/obs/obs.h"

namespace gvex {
namespace ingest {

namespace {
constexpr const char* kMagic = "gvexingest-v1";
}  // namespace

Result<std::unique_ptr<IngestJournal>> IngestJournal::Open(
    const std::string& path, bool resume) {
  std::unique_ptr<IngestJournal> journal(new IngestJournal);
  journal->path_ = path;

  bool have_valid_file = false;
  if (resume) {
    // A journal that cannot be read is treated like a missing one.
    Result<std::string> bytes = ReadFile(path);
    if (bytes.ok()) {
      TextReader in(*bytes);
      std::string_view magic;
      if (!(in >> magic) || magic != kMagic) {
        return Status::IoError("ingest journal " + path + " has a bad magic");
      }
      have_valid_file = true;
      IngestReplay& replay = journal->replay_;
      while (!in.AtEnd()) {
        Result<std::string_view> payload = ReadSection(&in);
        if (!payload.ok()) {
          // A torn tail from a crash mid-append: keep the valid prefix,
          // drop the rest.
          GVEX_LOG(Warning)
              << "ingest journal " << path << ": discarding corrupt tail ("
              << payload.status().ToString() << ") after "
              << replay.graphs.size() << " graph records";
          break;
        }
        TextReader rec(*payload);
        std::string_view tag;
        if (!(rec >> tag)) break;
        if (tag == "graph") {
          IngestRecord r;
          if (!(rec >> r.seq >> r.client_id >> r.label)) {
            GVEX_LOG(Warning) << "ingest journal " << path
                              << ": malformed graph record, stopping replay";
            break;
          }
          Result<Graph> g = ReadGraph(&rec);
          if (!g.ok()) {
            GVEX_LOG(Warning) << "ingest journal " << path
                              << ": unreadable graph record, stopping replay";
            break;
          }
          r.graph = std::move(*g);
          if (r.client_id != 0) replay.client_ids.insert(r.client_id);
          if (r.seq >= replay.next_seq) replay.next_seq = r.seq + 1;
          replay.graphs.push_back(std::move(r));
        } else if (tag == "ckpt") {
          uint64_t seq = 0;
          ClassLabel label = -1;
          if (!(rec >> seq >> label)) {
            GVEX_LOG(Warning) << "ingest journal " << path
                              << ": malformed checkpoint, stopping replay";
            break;
          }
          Result<StreamGvexSnapshot> snap = ReadStreamSnapshot(&rec);
          if (!snap.ok()) {
            GVEX_LOG(Warning) << "ingest journal " << path
                              << ": unreadable checkpoint, stopping replay";
            break;
          }
          // Newest checkpoint per label wins (records are in seq order).
          replay.checkpoints[label] = {seq, std::move(*snap)};
        } else {
          GVEX_LOG(Warning) << "ingest journal " << path
                            << ": unknown record '" << tag
                            << "', stopping replay";
          break;
        }
      }
    }
  }

  auto mode = have_valid_file ? (std::ios::out | std::ios::app)
                              : (std::ios::out | std::ios::trunc);
  journal->out_ = std::make_unique<std::ofstream>(path, mode);
  if (!journal->out_->is_open()) {
    return Status::IoError("cannot open ingest journal " + path);
  }
  if (!have_valid_file) {
    (*journal->out_) << kMagic << "\n";
    journal->out_->flush();
    if (!journal->out_->good()) {
      return Status::IoError("cannot initialize ingest journal " + path);
    }
  }
  return journal;
}

Status IngestJournal::AppendLocked(const TextWriter& record) {
  TextWriter section;
  WriteSection(&section, record.str());
  out_->write(section.str().data(),
              static_cast<std::streamsize>(section.str().size()));
  out_->flush();
  if (!out_->good()) {
    return Status::IoError("ingest journal append to " + path_ + " failed");
  }
  return Status::OK();
}

Status IngestJournal::AppendGraph(uint64_t seq, uint64_t client_id,
                                  ClassLabel label, const Graph& g) {
  // Fires *before* any bytes reach the file: a simulated crash leaves the
  // journal valid, exactly like a real kill between records.
  GVEX_FAILPOINT_RETURN("ingest.journal_append");
  GVEX_COUNTER_INC("ingest.journal_appends");
  GVEX_LATENCY_US("ingest.journal_append_us");
  TextWriter rec;
  rec << "graph " << seq << " " << client_id << " " << label << "\n";
  GVEX_RETURN_NOT_OK(WriteGraph(g, &rec));
  std::lock_guard<std::mutex> lock(mu_);
  return AppendLocked(rec);
}

Status IngestJournal::AppendCheckpoint(uint64_t seq, ClassLabel label,
                                       const StreamGvexSnapshot& snap) {
  GVEX_FAILPOINT_RETURN("ingest.journal_append");
  GVEX_COUNTER_INC("ingest.checkpoints");
  GVEX_LATENCY_US("ingest.checkpoint_us");
  TextWriter rec;
  rec << "ckpt " << seq << " " << label << "\n";
  GVEX_RETURN_NOT_OK(WriteStreamSnapshot(snap, &rec));
  std::lock_guard<std::mutex> lock(mu_);
  return AppendLocked(rec);
}

}  // namespace ingest
}  // namespace gvex
