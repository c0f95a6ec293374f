#include "gvex/common/logging.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace gvex {
namespace {
std::atomic<int> g_log_level{static_cast<int>(LogLevel::kInfo)};

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kFatal:
      return "FATAL";
  }
  return "?";
}
}  // namespace

void SetLogLevel(LogLevel level) {
  g_log_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : enabled_(static_cast<int>(level) >=
               g_log_level.load(std::memory_order_relaxed)),
      level_(level) {
  if (enabled_) {
    const char* base = file;
    for (const char* p = file; *p; ++p) {
      if (*p == '/') base = p + 1;
    }
    stream_ << "[" << LevelName(level) << " " << base << ":" << line << "] ";
  }
}

LogMessage::~LogMessage() {
  if (enabled_) {
    stream_ << "\n";
    std::fputs(stream_.str().c_str(), stderr);
  }
  if (level_ == LogLevel::kFatal) {
    std::abort();  // GVEX_CHECK: never continue on a violated invariant
  }
}

}  // namespace internal
}  // namespace gvex
