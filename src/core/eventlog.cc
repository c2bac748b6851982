#include "core/eventlog.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "core/io.h"

namespace sdss {
namespace {

constexpr NumberedFiles kEventFiles("events-", ".jsonl");

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

uint64_t SystemNowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

const char* EventSeverityName(EventSeverity severity) {
  switch (severity) {
    case EventSeverity::kInfo:
      return "INFO";
    case EventSeverity::kWarn:
      return "WARN";
    case EventSeverity::kError:
      return "ERROR";
  }
  return "?";
}

std::vector<std::string> ListEventLogFiles(const std::string& dir) {
  return kEventFiles.List(dir);
}

Result<std::unique_ptr<EventLog>> EventLog::Open(const std::string& dir,
                                                 Options options) {
  SDSS_RETURN_IF_ERROR(CreateDirs(dir));
  // Like the journal: never append to an existing file (its tail may be
  // a torn line from a crash mid-write); start a fresh one.
  const uint64_t first = kEventFiles.Next(dir);
  std::unique_ptr<EventLog> log(new EventLog(dir, options, first));
  {
    std::lock_guard<std::mutex> lock(log->mu_);
    SDSS_RETURN_IF_ERROR(log->OpenFileLocked(first));
  }
  return log;
}

EventLog::EventLog(std::string dir, Options options, uint64_t first_file)
    : dir_(std::move(dir)), options_(options), file_(first_file) {
  if (options_.metrics != nullptr) {
    m_emitted_ = options_.metrics->GetCounter("eventlog_events_emitted");
    m_write_errors_ =
        options_.metrics->GetCounter("eventlog_write_errors");
    m_rotations_ = options_.metrics->GetCounter("eventlog_rotations");
  }
}

EventLog::~EventLog() {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status EventLog::OpenFileLocked(uint64_t file) {
  const std::string path = dir_ + "/" + kEventFiles.Name(file);
  int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (fd < 0) {
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  }
  fd_ = fd;
  file_ = file;
  file_bytes_ = 0;
  return Status::OK();
}

void EventLog::RotateLocked() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (!OpenFileLocked(file_ + 1).ok()) {
    ++errors_;
    if (m_write_errors_ != nullptr) m_write_errors_->Inc();
    return;
  }
  if (m_rotations_ != nullptr) m_rotations_->Inc();
  // Prune oldest files beyond the retention count (the file just opened
  // is the newest).
  kEventFiles.PruneOldest(dir_, std::max<size_t>(1, options_.max_files));
}

std::string EventLog::FormatLine(const Event& event, uint64_t ts_ms) {
  std::string line;
  line.reserve(128);
  line += "{\"ts_ms\":";
  line += std::to_string(ts_ms);
  line += ",\"severity\":\"";
  line += EventSeverityName(event.severity);
  line += "\",\"component\":";
  AppendJsonString(&line, event.component);
  line += ",\"event\":";
  AppendJsonString(&line, event.name);
  if (event.id != 0) {
    line += ",\"id\":";
    line += std::to_string(event.id);
  }
  for (const auto& [key, value] : event.fields) {
    line.push_back(',');
    AppendJsonString(&line, key);
    line.push_back(':');
    AppendJsonString(&line, value);
  }
  line.push_back('}');
  return line;
}

void EventLog::Emit(const Event& event) {
  const uint64_t ts_ms =
      options_.now_ms ? options_.now_ms() : SystemNowMs();
  std::string line = FormatLine(event, ts_ms);
  line.push_back('\n');

  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) {
    // A previous rotation failed to open a file; try again so a
    // transient condition (ENOSPC that cleared) heals itself.
    if (!OpenFileLocked(file_).ok()) {
      ++errors_;
      if (m_write_errors_ != nullptr) m_write_errors_->Inc();
      return;
    }
  }
  size_t off = 0;
  while (off < line.size()) {
    ssize_t n = ::write(fd_, line.data() + off, line.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ++errors_;
      if (m_write_errors_ != nullptr) m_write_errors_->Inc();
      return;
    }
    off += static_cast<size_t>(n);
  }
  file_bytes_ += line.size();
  ++events_;
  if (m_emitted_ != nullptr) m_emitted_->Inc();
  if (file_bytes_ > options_.rotate_bytes) RotateLocked();
}

void EventLog::Emit(
    EventSeverity severity, std::string_view component, std::string_view name,
    uint64_t id,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        fields) {
  Event event;
  event.severity = severity;
  event.component.assign(component);
  event.name.assign(name);
  event.id = id;
  event.fields.reserve(fields.size());
  for (const auto& [key, value] : fields) {
    event.fields.emplace_back(std::string(key), std::string(value));
  }
  Emit(event);
}

uint64_t EventLog::events_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

uint64_t EventLog::write_errors() const {
  std::lock_guard<std::mutex> lock(mu_);
  return errors_;
}

uint64_t EventLog::current_file() const {
  std::lock_guard<std::mutex> lock(mu_);
  return file_;
}

}  // namespace sdss
