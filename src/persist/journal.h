// Append-only, CRC32-framed, segment-rotating write-ahead journal.
//
// The durability half of the persistence subsystem: state-changing
// operations (MyDB creates/drops/quota updates, workbench job
// transitions) append one framed record each, and recovery replays the
// records in order to rebuild the in-memory state a crash destroyed.
//
// On-disk format (see BUILDING.md "On-disk formats"):
//
//   <dir>/journal-000001.log, journal-000002.log, ...   (segments)
//
//   segment := frame*
//   frame   := crc:u32 | len:u32 | payload:len bytes
//
// `crc` is the CRC-32 of the len field plus the payload, so neither a
// torn length nor a torn payload can frame-shift the reader. Replay
// walks segments in numeric order and stops cleanly at the first frame
// that is incomplete (torn tail: fewer bytes than the header claims) or
// whose CRC mismatches -- everything before that point is replayed,
// nothing after it is trusted. A reopened journal never appends to an
// old segment (the tail may be torn); it always starts segment max+1,
// so the "last valid frame" boundary is stable across restarts.

#ifndef SDSS_PERSIST_JOURNAL_H_
#define SDSS_PERSIST_JOURNAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "core/eventlog.h"
#include "core/metrics.h"
#include "core/status.h"

namespace sdss::persist {

/// Append side. Thread-safe: Append may be called from any thread.
class Journal {
 public:
  struct Options {
    /// A segment exceeding this after an append is closed and the next
    /// append opens a fresh one.
    uint64_t segment_bytes = 4ull << 20;
    /// Metrics registry the journal publishes into
    /// (persist_journal_appends counter, persist_journal_append_us /
    /// persist_journal_fsync_us latency histograms). Null = no
    /// instrumentation; must outlive the journal when set. When set,
    /// the journal also registers a persist_journal_poisoned gauge
    /// (0 healthy, 1 poisoned) -- the latched signal the health
    /// watchdog's journal_poisoned rule reads.
    metrics::Registry* metrics = nullptr;
    /// Operational events (component "persist"): poisoning emits one
    /// kError journal_poisoned event carrying the error. Null = no
    /// events; must outlive the journal.
    EventLog* events = nullptr;
  };

  /// Opens `dir` for appending (creating it if needed). Existing
  /// segments are left untouched; appends go to a new segment numbered
  /// one past the highest present.
  static Result<std::unique_ptr<Journal>> Open(const std::string& dir,
                                               Options options);
  static Result<std::unique_ptr<Journal>> Open(const std::string& dir) {
    return Open(dir, Options());
  }

  ~Journal();
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Appends one framed record and fdatasyncs it: the record is durable
  /// when Append returns OK. After a write or sync failure the journal
  /// is POISONED: the segment may hold a partial frame, and bytes whose
  /// sync failed may still reach the disk later, so no further record
  /// may be appended behind them -- every subsequent Append returns the
  /// original error. (Replay handles the torn segment; a reopened
  /// journal starts a fresh one.)
  Status Append(std::string_view record);

  const std::string& dir() const { return dir_; }
  uint64_t records_appended() const;
  uint64_t current_segment() const;

  /// OK while the journal is healthy; the poisoning error afterwards.
  /// The monitoring plane's /statusz and the watchdog's gauge-based
  /// rule both key off this latch.
  Status health() const;
  bool poisoned() const { return !health().ok(); }

 private:
  Journal(std::string dir, Options options, uint64_t first_segment);

  Status RotateLocked();  ///< Opens segment `segment_ + 1`. Needs mu_.
  Status OpenSegmentLocked(uint64_t segment);

  /// Closes the fd and records `error` as the permanent poison status.
  /// Needs mu_.
  Status PoisonLocked(Status error);

  const std::string dir_;
  const Options options_;
  // Instruments resolved once at construction; all null when
  // Options::metrics is unset.
  metrics::Counter* m_appends_ = nullptr;
  metrics::Histogram* m_append_us_ = nullptr;
  metrics::Histogram* m_fsync_us_ = nullptr;
  metrics::Gauge* g_poisoned_ = nullptr;
  mutable std::mutex mu_;
  Status poisoned_;  ///< Non-OK once an append failed.
  int fd_ = -1;
  uint64_t segment_ = 0;
  uint64_t segment_bytes_written_ = 0;
  uint64_t records_ = 0;
};

/// Outcome of a replay pass.
struct ReplayReport {
  uint64_t records = 0;   ///< Records successfully decoded and applied.
  uint64_t segments = 0;  ///< Segment files visited.
  /// Bytes after the last valid frame that were ignored (torn tail or
  /// trailing corruption). 0 means every byte decoded cleanly.
  uint64_t dropped_bytes = 0;
  /// Human-readable note when dropped_bytes > 0 ("torn frame in
  /// journal-000002.log at offset 128").
  std::string tail_note;
};

/// Replays every valid record of the journal in `dir` in append order,
/// invoking `apply` for each. A non-OK status from `apply` aborts the
/// replay and is returned. A missing directory replays zero records
/// (fresh start). Torn or corrupt tails are not errors: replay stops at
/// the last valid frame and reports what it dropped.
Result<ReplayReport> ReplayJournal(
    const std::string& dir,
    const std::function<Status(std::string_view)>& apply);

/// Names of the journal segment files in `dir`, ascending. Empty when
/// the directory does not exist.
std::vector<std::string> ListJournalSegments(const std::string& dir);

}  // namespace sdss::persist

#endif  // SDSS_PERSIST_JOURNAL_H_
