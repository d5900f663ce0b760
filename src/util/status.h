#ifndef REGAL_UTIL_STATUS_H_
#define REGAL_UTIL_STATUS_H_

#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <variant>

namespace regal {

/// Error categories used across the library. The set is deliberately small:
/// callers usually branch only on ok()/!ok() and surface the message.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,   ///< Malformed input supplied by the caller.
  kNotFound,          ///< A named entity (region set, pattern, node) is absent.
  kAlreadyExists,     ///< Attempt to redefine an existing named entity.
  kFailedPrecondition,///< Data violates a required invariant (e.g. laminarity).
  kOutOfRange,        ///< Position or size outside the valid domain.
  kUnimplemented,     ///< Feature intentionally not supported.
  kResourceExhausted, ///< A configured search/size budget was exceeded.
  kInternal,          ///< Invariant violation inside the library (a bug).
  kDeadlineExceeded,  ///< A wall-clock deadline passed before completion.
  kCancelled,         ///< Caller-requested cooperative cancellation.
  kDataLoss,          ///< Persistent data is unrecoverably corrupt or torn
                      ///< (checksum mismatch, truncated snapshot, bad
                      ///< framing). Distinct from kInvalidArgument: the
                      ///< *caller* did nothing wrong — the bytes rotted.
  kOverloaded,        ///< The serving layer shed this request to protect
                      ///< itself (admission queue over its sojourn target,
                      ///< brownout mode). Always retryable after a
                      ///< backoff; distinct from kResourceExhausted, which
                      ///< is a per-caller quota verdict rather than a
                      ///< whole-system health one.
};

/// Returns a stable human-readable name for a status code.
const char* StatusCodeToString(StatusCode code);

/// Arrow/RocksDB-style status object. Functions that can fail return Status
/// (or Result<T>); exceptions are not used across API boundaries.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

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
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }
  static Status Overloaded(std::string msg) {
    return Status(StatusCode::kOverloaded, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CODE>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

namespace internal {
/// Prints the carried status to stderr and aborts. Out-of-line so the
/// checked accessors below stay inlineable.
[[noreturn]] void DieOnBadResultAccess(const Status& status);
}  // namespace internal

/// Value-or-error wrapper, analogous to arrow::Result. A Result either holds
/// a T (ok) or a non-OK Status. Accessing the value of an error Result
/// aborts with the carried status code and message (not an opaque
/// bad_variant_access), so callers must check ok() first
/// (ASSIGN_OR_RETURN-style macros below make this terse).
template <typename T>
class Result {
 public:
  /// Implicit construction from a value or from an error status keeps call
  /// sites natural: `return value;` / `return Status::InvalidArgument(...)`.
  Result(T value) : data_(std::move(value)) {}          // NOLINT(runtime/explicit)
  Result(Status status) : data_(std::move(status)) {}   // NOLINT(runtime/explicit)

  bool ok() const { return std::holds_alternative<T>(data_); }

  /// Returns OK if this holds a value, the stored error otherwise.
  Status status() const {
    if (ok()) return Status::OK();
    return std::get<Status>(data_);
  }

  const T& value() const& { CheckOk(); return std::get<T>(data_); }
  T& value() & { CheckOk(); return std::get<T>(data_); }
  T&& value() && { CheckOk(); return std::get<T>(std::move(data_)); }

  /// Explicitly named crash-on-error accessors for call sites that have
  /// established ok() out of band (tests, examples).
  const T& ValueOrDie() const& { return value(); }
  T& ValueOrDie() & { return value(); }
  T&& ValueOrDie() && { return std::move(*this).value(); }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  void CheckOk() const {
    if (!ok()) internal::DieOnBadResultAccess(std::get<Status>(data_));
  }

  std::variant<T, Status> data_;
};

/// Propagates a non-OK Status from an expression evaluating to Status.
#define REGAL_RETURN_NOT_OK(expr)                  \
  do {                                             \
    ::regal::Status _st = (expr);                  \
    if (!_st.ok()) return _st;                     \
  } while (false)

#define REGAL_CONCAT_IMPL(a, b) a##b
#define REGAL_CONCAT(a, b) REGAL_CONCAT_IMPL(a, b)

/// Evaluates `rexpr` (a Result<T>); on error returns its Status, otherwise
/// moves the value into `lhs` (which may be a declaration).
#define REGAL_ASSIGN_OR_RETURN(lhs, rexpr)                               \
  REGAL_ASSIGN_OR_RETURN_IMPL(REGAL_CONCAT(_regal_result_, __LINE__),    \
                              lhs, rexpr)

#define REGAL_ASSIGN_OR_RETURN_IMPL(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                                \
  if (!tmp.ok()) return tmp.status();                \
  lhs = std::move(tmp).value();

}  // namespace regal

#endif  // REGAL_UTIL_STATUS_H_
