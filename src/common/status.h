// Status: the error-handling backbone of the Sirius reproduction.
//
// Follows the Arrow / RocksDB idiom: functions that can fail return a
// Status (or Result<T>); exceptions never cross public API boundaries.

#pragma once

#include <memory>
#include <string>
#include <utility>

namespace sirius {

/// Machine-readable error category carried by a non-OK Status.
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,
  kNotImplemented = 2,
  kOutOfMemory = 3,
  kKeyError = 4,
  kTypeError = 5,
  kIndexError = 6,
  kIOError = 7,
  kParseError = 8,
  kBindError = 9,
  kExecutionError = 10,
  kUnsupportedOnDevice = 11,  ///< triggers graceful CPU fallback (paper 3.2.2)
  kTimeout = 12,
  kInternal = 13,
  kUnavailable = 14,  ///< transient resource failure (link down, node dead)
  kResourceExhausted = 15,  ///< admission shed / reservation budget exceeded
};

/// \brief Returns a human-readable name for a StatusCode ("Invalid argument", ...).
const char* StatusCodeToString(StatusCode code);

/// Typed detail under a StatusCode (the RocksDB sub-code idiom): the reason
/// a caller branches on, so recovery never depends on message wording. Only
/// causes some caller dispatches on exist; the code still decides
/// IsTransient() and host fallback.
enum class StatusCause : int {
  kNone = 0,
  /// On Unavailable: a spill tier died under the query's staged extents, or
  /// no surviving tier could take a new one. The engine revives the tiers
  /// and re-runs once; the serving layer re-admits.
  kSpillTierLost = 1,
  /// On ResourceExhausted: the spill path refused the bytes, because the
  /// tenant's spill quota or every configured tier is full. The serving
  /// layer sheds instead of failing the query.
  kSpillRefused = 2,
};

/// \brief Success-or-error result of an operation.
///
/// A Status is cheap to pass around: the OK state is a null pointer, and the
/// error state is a small heap allocation (errors are rare and slow-path).
///
/// Marked [[nodiscard]] at class level so that *every* function returning a
/// Status is discard-checked by the compiler; dropping one silently is the
/// bug class sirius_lint's `unchecked-status` rule exists to catch.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  /// Constructs a status with the given code, message and cause. Code must
  /// not be kOk.
  Status(StatusCode code, std::string msg,
         StatusCause cause = StatusCause::kNone);

  /// \name Factory helpers, one per StatusCode.
  /// @{
  static Status OK() { return Status(); }
  static Status Invalid(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status OutOfMemory(std::string msg) {
    return Status(StatusCode::kOutOfMemory, std::move(msg));
  }
  static Status KeyError(std::string msg) {
    return Status(StatusCode::kKeyError, std::move(msg));
  }
  static Status TypeError(std::string msg) {
    return Status(StatusCode::kTypeError, std::move(msg));
  }
  static Status IndexError(std::string msg) {
    return Status(StatusCode::kIndexError, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status BindError(std::string msg) {
    return Status(StatusCode::kBindError, std::move(msg));
  }
  static Status ExecutionError(std::string msg) {
    return Status(StatusCode::kExecutionError, std::move(msg));
  }
  static Status UnsupportedOnDevice(std::string msg) {
    return Status(StatusCode::kUnsupportedOnDevice, std::move(msg));
  }
  static Status Timeout(std::string msg) {
    return Status(StatusCode::kTimeout, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unavailable(std::string msg,
                            StatusCause cause = StatusCause::kNone) {
    return Status(StatusCode::kUnavailable, std::move(msg), cause);
  }
  static Status ResourceExhausted(std::string msg,
                                  StatusCause cause = StatusCause::kNone) {
    return Status(StatusCode::kResourceExhausted, std::move(msg), cause);
  }
  /// @}

  bool ok() const { return state_ == nullptr; }
  StatusCode code() const { return ok() ? StatusCode::kOk : state_->code; }
  /// Message of a non-OK status; empty string when OK.
  const std::string& message() const {
    static const std::string kEmpty;
    return ok() ? kEmpty : state_->msg;
  }
  /// Typed cause of a non-OK status; kNone when OK or unclassified.
  StatusCause cause() const {
    return ok() ? StatusCause::kNone : state_->cause;
  }
  /// Suggested resubmit delay in simulated seconds; 0 means no hint.
  double retry_after_s() const { return ok() ? 0 : state_->retry_after_s; }

  bool IsInvalid() const { return code() == StatusCode::kInvalidArgument; }
  bool IsNotImplemented() const { return code() == StatusCode::kNotImplemented; }
  bool IsOutOfMemory() const { return code() == StatusCode::kOutOfMemory; }
  bool IsUnsupportedOnDevice() const {
    return code() == StatusCode::kUnsupportedOnDevice;
  }
  bool IsTimeout() const { return code() == StatusCode::kTimeout; }
  bool IsUnavailable() const { return code() == StatusCode::kUnavailable; }
  bool IsResourceExhausted() const {
    return code() == StatusCode::kResourceExhausted;
  }
  /// Transient failures (link down, node churn) that retry layers may heal.
  bool IsTransient() const { return IsUnavailable() || IsTimeout(); }

  /// "OK" or "<Code>: <message>", plus "; retry-after=<s>s" when a hint
  /// is set.
  std::string ToString() const;

  /// Prepends context to the message of a non-OK status (no-op when OK).
  /// The cause and the retry-after hint are kept.
  Status WithContext(const std::string& context) const;

  /// Copy carrying a retry-after hint of `seconds` (no-op when OK).
  Status WithRetryAfter(double seconds) const;

 private:
  struct State {
    StatusCode code;
    std::string msg;
    StatusCause cause = StatusCause::kNone;
    double retry_after_s = 0;
  };
  std::shared_ptr<State> state_;  // null == OK
};

namespace internal {
/// Aborts the process with a readable diagnostic; used by SIRIUS_CHECK.
[[noreturn]] void AbortWithMessage(const char* file, int line, const std::string& msg);
}  // namespace internal

}  // namespace sirius

/// Propagates a non-OK Status to the caller.
#define SIRIUS_RETURN_NOT_OK(expr)                 \
  do {                                             \
    ::sirius::Status _st = (expr);                 \
    if (!_st.ok()) return _st;                     \
  } while (0)

#define SIRIUS_CONCAT_IMPL(x, y) x##y
#define SIRIUS_CONCAT(x, y) SIRIUS_CONCAT_IMPL(x, y)

/// Evaluates an expression returning Result<T>; on success binds the value
/// to `lhs`, on failure returns the error Status.
#define SIRIUS_ASSIGN_OR_RETURN(lhs, rexpr)                                  \
  auto SIRIUS_CONCAT(_res_, __LINE__) = (rexpr);                             \
  if (!SIRIUS_CONCAT(_res_, __LINE__).ok())                                  \
    return SIRIUS_CONCAT(_res_, __LINE__).status();                          \
  lhs = std::move(SIRIUS_CONCAT(_res_, __LINE__)).ValueOrDie()

/// Aborts if `cond` is false. For programmer errors, not runtime errors.
#define SIRIUS_CHECK(cond)                                                     \
  do {                                                                         \
    if (!(cond))                                                               \
      ::sirius::internal::AbortWithMessage(__FILE__, __LINE__,                 \
                                           "Check failed: " #cond);            \
  } while (0)

/// Aborts if the Status is not OK. For must-succeed call sites (tests, setup).
#define SIRIUS_CHECK_OK(expr)                                                  \
  do {                                                                         \
    ::sirius::Status _st = (expr);                                             \
    if (!_st.ok())                                                             \
      ::sirius::internal::AbortWithMessage(__FILE__, __LINE__, _st.ToString()); \
  } while (0)
