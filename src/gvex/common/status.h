// Status: lightweight error propagation in the Arrow/RocksDB style.
// Core library code does not throw; fallible operations return Status or
// Result<T> (see result.h) and callers check or propagate with the
// GVEX_RETURN_NOT_OK / GVEX_ASSIGN_OR_RETURN macros.
#pragma once

#include <memory>
#include <string>
#include <utility>

namespace gvex {

enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kOutOfRange = 3,
  kAlreadyExists = 4,
  kFailedPrecondition = 5,
  kInternal = 6,
  kIoError = 7,
  kTimeout = 8,
  kUnimplemented = 9,
  kInfeasible = 10,  // e.g. no explanation view satisfies the configuration
  kOverloaded = 11,  // admission control shed the request; retry later
  kQuotaExceeded = 12,  // a per-route admission quota shed the request
  kPartialFailure = 13,  // a fan-out operation succeeded on some targets only
  kPartialResult = 14,   // a scatter-gather answer is missing some shards
  kEvaluationFailed = 15,  // an explainer scorecard fell below the quality gate
};

/// The highest StatusCode: wire decoders reject any code above it.
inline constexpr StatusCode kLastStatusCode = StatusCode::kEvaluationFailed;

/// \brief Outcome of a fallible operation.
///
/// An OK status carries no allocation; error statuses carry a code and a
/// human-readable message. Copyable and cheaply movable.
class Status {
 public:
  Status() = default;  // OK

  Status(StatusCode code, std::string msg) {
    if (code != StatusCode::kOk) {
      state_ = std::make_shared<State>(State{code, std::move(msg)});
    }
  }

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Timeout(std::string msg) {
    return Status(StatusCode::kTimeout, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Infeasible(std::string msg) {
    return Status(StatusCode::kInfeasible, std::move(msg));
  }
  static Status Overloaded(std::string msg) {
    return Status(StatusCode::kOverloaded, std::move(msg));
  }
  static Status QuotaExceeded(std::string msg) {
    return Status(StatusCode::kQuotaExceeded, std::move(msg));
  }
  static Status PartialFailure(std::string msg) {
    return Status(StatusCode::kPartialFailure, std::move(msg));
  }
  static Status PartialResult(std::string msg) {
    return Status(StatusCode::kPartialResult, std::move(msg));
  }
  static Status EvaluationFailed(std::string msg) {
    return Status(StatusCode::kEvaluationFailed, std::move(msg));
  }

  bool ok() const { return state_ == nullptr; }
  StatusCode code() const { return state_ ? state_->code : StatusCode::kOk; }
  const std::string& message() const {
    static const std::string kEmpty;
    return state_ ? state_->msg : kEmpty;
  }

  bool IsInvalidArgument() const { return code() == StatusCode::kInvalidArgument; }
  bool IsNotFound() const { return code() == StatusCode::kNotFound; }
  bool IsInfeasible() const { return code() == StatusCode::kInfeasible; }
  bool IsTimeout() const { return code() == StatusCode::kTimeout; }
  bool IsIoError() const { return code() == StatusCode::kIoError; }
  bool IsInternal() const { return code() == StatusCode::kInternal; }
  bool IsOverloaded() const { return code() == StatusCode::kOverloaded; }
  bool IsPartialFailure() const {
    return code() == StatusCode::kPartialFailure;
  }

  std::string ToString() const;

 private:
  struct State {
    StatusCode code;
    std::string msg;
  };
  std::shared_ptr<State> state_;  // null == OK
};

const char* StatusCodeToString(StatusCode code);

}  // namespace gvex

/// Propagate a non-OK Status to the caller.
#define GVEX_RETURN_NOT_OK(expr)                 \
  do {                                           \
    ::gvex::Status _st = (expr);                 \
    if (!_st.ok()) return _st;                   \
  } while (false)

#define GVEX_CONCAT_IMPL(a, b) a##b
#define GVEX_CONCAT(a, b) GVEX_CONCAT_IMPL(a, b)

/// Evaluate a Result<T>-returning expression; on success bind the value,
/// on failure propagate the Status.
#define GVEX_ASSIGN_OR_RETURN(lhs, expr)                          \
  auto GVEX_CONCAT(_res_, __LINE__) = (expr);                     \
  if (!GVEX_CONCAT(_res_, __LINE__).ok())                         \
    return GVEX_CONCAT(_res_, __LINE__).status();                 \
  lhs = std::move(GVEX_CONCAT(_res_, __LINE__)).ValueOrDie()
