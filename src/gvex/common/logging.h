// Minimal leveled logging to stderr. Intended for library diagnostics and
// bench progress lines; hot paths must not log.
#pragma once

#include <sstream>
#include <string>

namespace gvex {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  kFatal = 4,  // aborts after emitting
};

/// Global threshold; messages below it are dropped. Default: kInfo.
void SetLogLevel(LogLevel level);

namespace internal {

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  template <typename T>
  LogMessage& operator<<(const T& v) {
    if (enabled_) stream_ << v;
    return *this;
  }

 private:
  bool enabled_;
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace gvex

#define GVEX_LOG(level)                                                  \
  ::gvex::internal::LogMessage(::gvex::LogLevel::k##level, __FILE__, __LINE__)

/// Fatal invariant check: logs and aborts when `cond` is false. Never
/// compiled out (unlike assert).
#define GVEX_CHECK(cond)                                                   \
  if (!(cond))                                                             \
  ::gvex::internal::LogMessage(::gvex::LogLevel::kFatal, __FILE__, __LINE__) \
      << "Check failed: " #cond " "
