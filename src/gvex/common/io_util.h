// Hardened persistence primitives shared by the v2 on-disk formats:
//   - CRC-framed sections (length + checksum per record, so loaders detect
//     truncation and bit rot instead of mis-parsing),
//   - atomic save (write-to-temp + rename: a crashed writer never leaves a
//     half-written file under the final name),
//   - retry with exponential backoff for transient IO errors.
#pragma once

#include <functional>
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
