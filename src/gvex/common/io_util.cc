#include "gvex/common/io_util.h"

#include <charconv>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>

#include "gvex/common/checksum.h"
#include "gvex/common/failpoint.h"
#include "gvex/common/string_util.h"

namespace gvex {

void WriteSection(TextWriter* out, std::string_view payload) {
  *out << "sec " << payload.size() << " "
       << StrFormat("%08x", Crc32(payload.data(), payload.size())) << "\n"
       << payload;
}

Result<std::string_view> ReadSection(TextReader* in) {
  std::string_view tag, crc_hex;
  size_t nbytes = 0;
  if (!(*in >> tag >> nbytes >> crc_hex) || tag != "sec") {
    return Status::IoError("bad section frame");
  }
  if (crc_hex.size() != 8 ||
      crc_hex.find_first_not_of("0123456789abcdef") != std::string_view::npos) {
    return Status::IoError("bad section checksum field");
  }
  if (!in->Consume('\n')) return Status::IoError("bad section frame");
  std::string_view payload;
  if (!in->Take(nbytes, &payload)) return Status::IoError("section truncated");
  uint32_t expected = 0;
  std::from_chars(crc_hex.data(), crc_hex.data() + crc_hex.size(), expected,
                  16);
  if (Crc32(payload.data(), payload.size()) != expected) {
    return Status::IoError("section checksum mismatch");
  }
  return payload;
}

Status AtomicSave(const std::string& path,
                  const std::function<Status(TextWriter*)>& writer) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) return Status::IoError("cannot open " + tmp);
    TextWriter text;
    Status st = writer(&text);
    if (st.ok()) {
      out.write(text.str().data(),
                static_cast<std::streamsize>(text.str().size()));
      out.flush();
      if (!out.good()) st = Status::IoError("flush failed for " + tmp);
    }
    if (!st.ok()) {
      out.close();
      std::remove(tmp.c_str());
      return st;
    }
  }
  // Crash window under test: an armed "io.atomic_rename" failpoint models
  // dying after the temp file is complete but before the commit rename.
  if (failpoint::AnyArmed()) {
    Status st = failpoint::Check("io.atomic_rename");
    if (!st.ok()) {
      std::remove(tmp.c_str());
      return st;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("rename to " + path + " failed");
  }
  return Status::OK();
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return Status::IoError("cannot open " + path);
  std::string bytes;
  char buf[1 << 16];
  while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
    bytes.append(buf, static_cast<size_t>(in.gcount()));
  }
  if (in.bad()) return Status::IoError("cannot read " + path);
  return bytes;
}

Status RetryIo(const std::function<Status()>& op, const RetryOptions& options) {
  Status st;
  int delay_ms = options.base_delay_ms;
  for (int attempt = 1;; ++attempt) {
    st = op();
    if (st.ok() || st.code() != StatusCode::kIoError ||
        attempt >= options.max_attempts) {
      return st;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    delay_ms *= 2;
  }
}

}  // namespace gvex
