// Exception-free error handling used on all public API boundaries.
//
// Status carries an error code plus a human-readable message; Result<T> is a
// Status-or-value. Modeled on absl::Status / absl::StatusOr but self-contained.
#ifndef SRC_BASE_STATUS_H_
#define SRC_BASE_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace camelot {

enum class StatusCode {
  kOk = 0,
  kAborted,           // Transaction aborted (by user, deadlock, crash, vote-no...).
  kNotFound,          // Named entity does not exist.
  kAlreadyExists,     // Duplicate creation.
  kInvalidArgument,   // Caller error.
  kFailedPrecondition,// Call not legal in current state.
  kUnavailable,       // Site down or partitioned away.
  kTimedOut,          // Gave up waiting.
  kBlocked,           // 2PC participant is blocked awaiting coordinator outcome.
  kCorruption,        // Log or storage integrity failure.
  kInternal,          // Bug.
  kOverloaded,        // Shed by admission control; client counts this as shed, not failed.
};

const char* StatusCodeName(StatusCode code);

class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message) : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) { return a.code_ == b.code_; }

 private:
  StatusCode code_;
  std::string message_;
};

inline Status OkStatus() { return Status::Ok(); }
inline Status AbortedError(std::string m) { return {StatusCode::kAborted, std::move(m)}; }
inline Status NotFoundError(std::string m) { return {StatusCode::kNotFound, std::move(m)}; }
inline Status AlreadyExistsError(std::string m) {
  return {StatusCode::kAlreadyExists, std::move(m)};
}
inline Status InvalidArgumentError(std::string m) {
  return {StatusCode::kInvalidArgument, std::move(m)};
}
inline Status FailedPreconditionError(std::string m) {
  return {StatusCode::kFailedPrecondition, std::move(m)};
}
inline Status UnavailableError(std::string m) { return {StatusCode::kUnavailable, std::move(m)}; }
inline Status TimedOutError(std::string m) { return {StatusCode::kTimedOut, std::move(m)}; }
inline Status BlockedError(std::string m) { return {StatusCode::kBlocked, std::move(m)}; }
inline Status CorruptionError(std::string m) { return {StatusCode::kCorruption, std::move(m)}; }
inline Status InternalError(std::string m) { return {StatusCode::kInternal, std::move(m)}; }
inline Status OverloadedError(std::string m) { return {StatusCode::kOverloaded, std::move(m)}; }

// Status-or-value. `value()` asserts on error in debug builds; check `ok()` first.
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Status status) : status_(std::move(status)) {  // NOLINT(google-explicit-constructor)
    assert(!status_.ok() && "Result constructed from OK status without a value");
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  T& value() {
    assert(ok());
    return *value_;
  }
  const T& value() const {
    assert(ok());
    return *value_;
  }

  T value_or(T fallback) const { return ok() ? *value_ : std::move(fallback); }

  T& operator*() { return value(); }
  const T& operator*() const { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace camelot

#endif  // SRC_BASE_STATUS_H_
