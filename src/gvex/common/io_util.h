// Hardened persistence primitives shared by the v2 on-disk formats:
//   - CRC-framed sections (length + checksum per record, so loaders detect
//     truncation and bit rot instead of mis-parsing),
//   - atomic save (write-to-temp + rename: a crashed writer never leaves a
//     half-written file under the final name),
//   - append-only journals of such sections that resume after a crash,
//   - retry with exponential backoff for transient IO errors.
#pragma once

#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "gvex/common/result.h"
#include "gvex/common/text_codec.h"

namespace gvex {

// ---- CRC-framed sections ----------------------------------------------------
//
// A section is "sec <byte-count> <crc32-hex>\n" followed by exactly
// <byte-count> payload bytes. Readers reject short reads (truncation) and
// checksum mismatches (corruption) with IoError before any payload parsing.

void WriteSection(TextWriter* out, std::string_view payload);

/// Read one section; IoError on framing, truncation, or CRC mismatch. The
/// payload points into the reader's bytes.
Result<std::string_view> ReadSection(TextReader* in);

/// The fewest bytes one section takes ("sec 0 00000000\n"), for bounding
/// a count of sections by the bytes left.
inline constexpr size_t kMinSectionBytes = 15;

// ---- atomic save ------------------------------------------------------------

/// Serialize via `writer` into `path + ".tmp"`, then rename over `path`.
/// The temp file is removed on any failure; readers of `path` never see a
/// partial write.
Status AtomicSave(const std::string& path,
                  const std::function<Status(TextWriter*)>& writer);

/// The whole file at `path`; IoError if it cannot be opened or read.
Result<std::string> ReadFile(const std::string& path);

// ---- append-only journals ---------------------------------------------------
//
// A journal is a magic line followed by one section per record. A resume
// replays the records in order and stops at the first one that is torn,
// corrupt or rejected. The file is then cut back to the end of the last
// record the replay accepted, so later appends are never stranded behind
// bytes that every later resume would stop at.

class JournalFile {
 public:
  /// Open the journal at `path`; `what` names it in messages. With
  /// `resume`, each record of an existing file is passed to `replay` in
  /// order until one cannot be read or `replay` returns an error, and the
  /// file is cut there; a file that cannot be read is treated like a
  /// missing one. Otherwise the file starts over with just the magic line.
  /// IoError on a bad magic line, or when the file cannot be cut, opened
  /// or initialized.
  static Result<std::unique_ptr<JournalFile>> Open(
      const std::string& path, std::string_view what, std::string_view magic,
      bool resume, const std::function<Status(std::string_view)>& replay);

  /// Frame `record` as one section, append it and flush. Fails closed.
  /// Not thread-safe: callers serialize appends.
  Status Append(std::string_view record);

 private:
  JournalFile(std::string name, std::ofstream out)
      : name_(std::move(name)), out_(std::move(out)) {}

  std::string name_;  ///< "<what> <path>", for messages
  std::ofstream out_;
};

// ---- retry ------------------------------------------------------------------

struct RetryOptions {
  int max_attempts = 3;
  int base_delay_ms = 1;  ///< doubles per attempt: 1ms, 2ms, 4ms, ...
};

/// Run `op`, retrying on kIoError with exponential backoff. Other error
/// codes (and success) return immediately.
Status RetryIo(const std::function<Status()>& op,
               const RetryOptions& options = RetryOptions());

}  // namespace gvex
