#include "common/status.h"

#include <cstdio>
#include <cstdlib>

namespace sirius {

const char* StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "Invalid argument";
    case StatusCode::kNotImplemented:
      return "Not implemented";
    case StatusCode::kOutOfMemory:
      return "Out of memory";
    case StatusCode::kKeyError:
      return "Key error";
    case StatusCode::kTypeError:
      return "Type error";
    case StatusCode::kIndexError:
      return "Index error";
    case StatusCode::kIOError:
      return "IO error";
    case StatusCode::kParseError:
      return "Parse error";
    case StatusCode::kBindError:
      return "Bind error";
    case StatusCode::kExecutionError:
      return "Execution error";
    case StatusCode::kUnsupportedOnDevice:
      return "Unsupported on device";
    case StatusCode::kTimeout:
      return "Timeout";
    case StatusCode::kInternal:
      return "Internal error";
    case StatusCode::kUnavailable:
      return "Unavailable";
    case StatusCode::kResourceExhausted:
      return "Resource exhausted";
  }
  return "Unknown";
}

Status::Status(StatusCode code, std::string msg, StatusCause cause)
    : state_(std::make_shared<State>(State{code, std::move(msg), cause})) {}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeToString(code());
  out += ": ";
  out += message();
  if (retry_after_s() > 0) {
    out += "; retry-after=" + std::to_string(retry_after_s()) + "s";
  }
  return out;
}

Status Status::WithContext(const std::string& context) const {
  if (ok()) return *this;
  Status out;
  out.state_ = std::make_shared<State>(*state_);
  out.state_->msg = context + ": " + message();
  return out;
}

Status Status::WithRetryAfter(double seconds) const {
  if (ok()) return *this;
  Status out;
  out.state_ = std::make_shared<State>(*state_);
  out.state_->retry_after_s = seconds;
  return out;
}

namespace internal {

void AbortWithMessage(const char* file, int line, const std::string& msg) {
  std::fprintf(stderr, "[sirius fatal] %s:%d: %s\n", file, line, msg.c_str());
  std::abort();
}

}  // namespace internal

}  // namespace sirius
