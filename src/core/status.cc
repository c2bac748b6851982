#include "core/status.h"

namespace sdss {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kIOError:
      return "IOError";
    case StatusCode::kCorruption:
      return "Corruption";
    case StatusCode::kNotSupported:
      return "NotSupported";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kCancelled:
      return "Cancelled";
    case StatusCode::kAborted:
      return "Aborted";
    case StatusCode::kUnavailable:
      return "Unavailable";
  }
  return "Unknown";
}

Status Status::FromCode(StatusCode code, std::string msg) {
  if (code == StatusCode::kOk) return OK();
  if (code > StatusCode::kUnavailable) code = StatusCode::kInternal;
  return Status(code, std::move(msg));
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string s = StatusCodeName(code_);
  if (!message_.empty()) {
    s += ": ";
    s += message_;
  }
  return s;
}

}  // namespace sdss
