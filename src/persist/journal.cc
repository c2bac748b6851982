#include "persist/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <vector>

#include "core/io.h"
#include "persist/coding.h"
#include "persist/crc32.h"

namespace sdss::persist {
namespace {

constexpr NumberedFiles kSegments("journal-", ".log");
constexpr size_t kFrameHeaderBytes = 8;  // crc:u32 + len:u32.
/// Upper bound on one record: anything larger in a length field is
/// corruption, not a record (journal users write KB-scale records).
constexpr uint32_t kMaxRecordBytes = 64u << 20;

uint64_t ElapsedUs(std::chrono::steady_clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

/// CRC of a frame: the len field followed by the payload.
uint32_t FrameCrc(uint32_t len, std::string_view payload) {
  char len_bytes[4];
  EncodeFixed32(len_bytes, len);
  const uint32_t len_crc = Crc32(len_bytes, sizeof(len_bytes));
  return Crc32(payload.data(), payload.size(), len_crc);
}

}  // namespace

std::vector<std::string> ListJournalSegments(const std::string& dir) {
  return kSegments.List(dir);
}

Result<std::unique_ptr<Journal>> Journal::Open(const std::string& dir,
                                               Options options) {
  SDSS_RETURN_IF_ERROR(CreateDirs(dir));
  // Never append to an existing segment: its tail may be torn, and a
  // frame written after a torn tail would be unreachable to replay.
  const uint64_t first = kSegments.Next(dir);
  std::unique_ptr<Journal> journal(new Journal(dir, options, first));
  {
    std::lock_guard<std::mutex> lock(journal->mu_);
    SDSS_RETURN_IF_ERROR(journal->OpenSegmentLocked(first));
  }
  return journal;
}

Journal::Journal(std::string dir, Options options, uint64_t first_segment)
    : dir_(std::move(dir)), options_(options), segment_(first_segment) {
  if (options_.metrics != nullptr) {
    m_appends_ = options_.metrics->GetCounter("persist_journal_appends");
    m_append_us_ =
        options_.metrics->GetHistogram("persist_journal_append_us");
    m_fsync_us_ =
        options_.metrics->GetHistogram("persist_journal_fsync_us");
    // Register at 0 so the watchdog's journal_poisoned rule sees a
    // healthy gauge from the first sample, not a missing instrument.
    g_poisoned_ = options_.metrics->GetGauge("persist_journal_poisoned");
    g_poisoned_->Set(0);
  }
}

Journal::~Journal() {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0) {
    ::fdatasync(fd_);
    ::close(fd_);
    fd_ = -1;
  }
}

Status Journal::OpenSegmentLocked(uint64_t segment) {
  if (fd_ >= 0) {
    if (::fdatasync(fd_) != 0 || ::close(fd_) != 0) {
      fd_ = -1;
      return Status::IOError("closing journal segment: " +
                             std::string(std::strerror(errno)));
    }
    fd_ = -1;
  }
  const std::string path = dir_ + "/" + kSegments.Name(segment);
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC,
               0664);
  if (fd_ < 0) {
    return Status::IOError("open journal segment '" + path +
                           "': " + std::strerror(errno));
  }
  segment_ = segment;
  segment_bytes_written_ = 0;
  // Make the new directory entry durable so a post-crash replay sees
  // the segment (and with it the ordering boundary).
  return SyncDir(dir_);
}

Status Journal::RotateLocked() { return OpenSegmentLocked(segment_ + 1); }

Status Journal::PoisonLocked(Status error) {
  poisoned_ = error;
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (g_poisoned_ != nullptr) g_poisoned_->Set(1);
  LogEvent(options_.events, EventSeverity::kError, "persist",
           "journal_poisoned", 0,
           {{"dir", dir_}, {"error", error.ToString()}});
  return error;
}

Status Journal::health() const {
  std::lock_guard<std::mutex> lock(mu_);
  return poisoned_;
}

Status Journal::Append(std::string_view record) {
  if (record.size() > kMaxRecordBytes) {
    return Status::InvalidArgument("journal record exceeds 64 MiB");
  }
  std::string frame;
  frame.reserve(kFrameHeaderBytes + record.size());
  const uint32_t len = static_cast<uint32_t>(record.size());
  PutFixed32(&frame, FrameCrc(len, record));
  PutFixed32(&frame, len);
  frame.append(record.data(), record.size());

  std::lock_guard<std::mutex> lock(mu_);
  if (!poisoned_.ok()) return poisoned_;
  if (fd_ < 0) return Status::FailedPrecondition("journal is closed");
  const auto t0 = std::chrono::steady_clock::now();
  if (segment_bytes_written_ >= options_.segment_bytes) {
    Status rotated = RotateLocked();
    if (!rotated.ok()) {
      // The old segment is closed and no new one opened: there is
      // nowhere correct to append. Latch it like any other I/O failure
      // so callers (and the watchdog's gauge) see one consistent state.
      return PoisonLocked(std::move(rotated));
    }
  }
  size_t written = 0;
  while (written < frame.size()) {
    ssize_t n =
        ::write(fd_, frame.data() + written, frame.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      // The frame may be partially on disk: nothing may ever be
      // appended behind it (replay could not reach it).
      return PoisonLocked(Status::IOError(
          "journal append: " + std::string(std::strerror(errno))));
    }
    written += static_cast<size_t>(n);
  }
  segment_bytes_written_ += frame.size();
  const auto f0 = std::chrono::steady_clock::now();
  if (::fdatasync(fd_) != 0) {
    // The record was written but not acknowledged durable -- yet the
    // kernel may still flush it later. The only safe stance is to stop
    // appending: the record stays un-acked AND nothing lands behind it.
    return PoisonLocked(Status::IOError(
        "journal sync: " + std::string(std::strerror(errno))));
  }
  if (m_fsync_us_ != nullptr) m_fsync_us_->Record(ElapsedUs(f0));
  ++records_;
  if (m_appends_ != nullptr) m_appends_->Inc();
  if (m_append_us_ != nullptr) m_append_us_->Record(ElapsedUs(t0));
  return Status::OK();
}

uint64_t Journal::records_appended() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

uint64_t Journal::current_segment() const {
  std::lock_guard<std::mutex> lock(mu_);
  return segment_;
}

Result<ReplayReport> ReplayJournal(
    const std::string& dir,
    const std::function<Status(std::string_view)>& apply) {
  ReplayReport report;
  if (!PathExists(dir)) return report;  // Fresh start.
  auto note_tail = [&report](const std::string& what,
                             const std::string& segment, size_t offset) {
    if (!report.tail_note.empty()) report.tail_note += "; ";
    report.tail_note +=
        what + " in " + segment + " at offset " + std::to_string(offset);
  };
  for (const std::string& name : ListJournalSegments(dir)) {
    const std::string path = dir + "/" + name;
    auto data = ReadFileToString(path);
    if (!data.ok()) return data.status();
    ++report.segments;
    Cursor cursor(*data);
    while (!cursor.done()) {
      const size_t frame_start = cursor.position();
      uint32_t crc = 0, len = 0;
      if (!cursor.GetFixed32(&crc) || !cursor.GetFixed32(&len) ||
          len > kMaxRecordBytes || cursor.remaining() < len) {
        // Torn tail: a frame the writer never finished. Everything
        // after it in THIS segment is unreachable (the frame boundary
        // is lost), but later segments were written by later
        // incarnations -- a reopen never appends to a torn segment --
        // so their committed records must still replay. Skip to the
        // next segment instead of aborting the whole journal.
        report.dropped_bytes += data->size() - frame_start;
        note_tail("torn frame", name, frame_start);
        break;
      }
      std::string_view payload(data->data() + cursor.position(), len);
      cursor.Skip(len);
      if (FrameCrc(len, payload) != crc) {
        report.dropped_bytes += data->size() - frame_start;
        note_tail("bad frame CRC", name, frame_start);
        break;
      }
      SDSS_RETURN_IF_ERROR(apply(payload));
      ++report.records;
    }
  }
  return report;
}

}  // namespace sdss::persist
