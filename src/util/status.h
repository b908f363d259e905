#ifndef UGS_UTIL_STATUS_H_
#define UGS_UTIL_STATUS_H_

#include <string>
#include <utility>

namespace ugs {

/// Error categories for fallible operations. Mirrors the conventional
/// database-library style (RocksDB-like) status object: the library does not
/// use exceptions; operations that can fail return a Status or Result<T>.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kIOError,
  kOutOfRange,
  kFailedPrecondition,
  kInternal,
};

/// A cheap value type describing the outcome of an operation.
///
/// Usage:
///   Status s = SaveEdgeList(graph, path);
///   if (!s.ok()) { LOG(ERROR) << s.ToString(); return s; }
///
///   Result<UncertainGraph> loaded = LoadEdgeList(path);  // Value or Status.
///   if (!loaded.ok()) return loaded.status();
///
/// [[nodiscard]] on the class makes every function returning a Status
/// by value warn when the result is ignored -- a swallowed error is a
/// bug unless the call site says otherwise with a (void) cast and a
/// comment (docs/static-analysis.md).
class [[nodiscard]] Status {
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
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Human-readable "CODE: message" rendering.
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// Either a value or an error Status. Modeled after absl::StatusOr but
/// dependency-free. Accessing value() on an error aborts (checked).
/// [[nodiscard]] for the same reason as Status: discarding a Result
/// discards its error.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Implicit construction from a value; deliberate (mirrors StatusOr).
  Result(T value) : value_(std::move(value)), status_() {}  // NOLINT
  /// Implicit construction from an error status; must not be OK.
  Result(Status status) : status_(std::move(status)) {}  // NOLINT

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& { return value_; }
  T& value() & { return value_; }
  T&& value() && { return std::move(value_); }

  const T& operator*() const& { return value_; }
  T& operator*() & { return value_; }
  const T* operator->() const { return &value_; }
  T* operator->() { return &value_; }

 private:
  T value_{};
  Status status_;
};

/// Propagates a non-OK status to the caller.
#define UGS_RETURN_IF_ERROR(expr)             \
  do {                                        \
    ::ugs::Status _ugs_status = (expr);       \
    if (!_ugs_status.ok()) return _ugs_status; \
  } while (0)

}  // namespace ugs

#endif  // UGS_UTIL_STATUS_H_
