// Status and Result<T>: error handling primitives used across the library.
//
// Follows the RocksDB/Arrow convention: fallible operations return a Status
// (or a Result<T> carrying a value on success) instead of throwing. Errors
// carry a code and a human-readable message.

#ifndef SDSS_CORE_STATUS_H_
#define SDSS_CORE_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace sdss {

/// Error category for a failed operation.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kIOError,
  kCorruption,
  kNotSupported,
  kFailedPrecondition,
  kResourceExhausted,
  kInternal,
  kCancelled,
  /// The operation was interrupted mid-flight (e.g. by a crash) and left
  /// no partial effects; retrying the whole operation is safe.
  kAborted,
  /// The service is temporarily overloaded or shedding work; the request
  /// was refused without side effects and should be retried after a
  /// backoff (the query server maps this to a protocol-level BUSY).
  kUnavailable,
};

/// Returns a stable human-readable name for a status code ("InvalidArgument").
const char* StatusCodeName(StatusCode code);

/// The result of an operation that can fail. Cheap to copy when OK.
///
/// Usage:
///   Status s = store.Put(obj);
///   if (!s.ok()) return s;
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status Aborted(std::string msg) {
    return Status(StatusCode::kAborted, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  /// Rebuilds a status from a decoded (code, message) pair -- a journal
  /// record or a wire frame. kOk drops the message; a code this build
  /// does not know becomes kInternal.
  static Status FromCode(StatusCode code, std::string msg);

  /// True iff the operation succeeded.
  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

/// A Status or a value of type T. Exactly one is present.
///
/// Usage:
///   Result<HtmId> r = HtmId::FromName("N012");
///   if (!r.ok()) return r.status();
///   HtmId id = r.value();
template <typename T>
class Result {
 public:
  /// Implicit construction from a value (success).
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Implicit construction from a non-OK status (failure).
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "Result(Status) requires a non-OK status");
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  /// Precondition: ok().
  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  /// Returns the contained value or `fallback` when failed.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

/// Propagates a non-OK status from an expression: RETURN_IF_ERROR(DoThing());
#define SDSS_RETURN_IF_ERROR(expr)              \
  do {                                          \
    ::sdss::Status _s = (expr);                 \
    if (!_s.ok()) return _s;                    \
  } while (0)

}  // namespace sdss

#endif  // SDSS_CORE_STATUS_H_
