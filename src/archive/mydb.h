// MyDB: per-user personal result stores for the batch workbench.
//
// The CasJobs/MyDB model from the paper's successor systems: a long
// query materializes its result set into a named container owned by the
// submitting user ("SELECT ... INTO mydb.<name>"), and follow-up queries
// mine that container ("FROM mydb.<name>") instead of re-scanning --
// or, federated, re-shipping -- the base data. Each named table is a
// full catalog::ObjectStore (HTM-clustered like the archive itself), so
// spatial pruning and the density-map predictions keep working on
// derived data.
//
// Quotas are per user in bytes: a Put that would exceed the owner's
// quota is refused whole (no partial container is ever stored).
//
// Durability (optional): with Options::persist_dir set and
// AttachStorage() called, every table lives on disk as a
// persist::Snapshot and every state change (create / drop / quota
// update) is committed through a persist::Journal, with all-or-nothing
// semantics -- the snapshot file is written durably FIRST, then the
// journaled CREATE record is the commit point, so a crash anywhere
// mid-materialization recovers to either the whole table or no trace of
// it, never a partial one. Layout under persist_dir:
//
//   journal/journal-NNNNNN.log    state-change records
//   tables/<user>/<name>.snap     one snapshot per live table
//
// Recovery (inside AttachStorage) replays the journal to learn which
// tables are committed, maps exactly those snapshots (each table serves
// scans straight off its file's pages, no rebuild), and deletes
// orphans (snapshots with no committed CREATE: the debris of a crash
// mid-INTO).

#ifndef SDSS_ARCHIVE_MYDB_H_
#define SDSS_ARCHIVE_MYDB_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "catalog/object_store.h"
#include "core/status.h"
#include "persist/journal.h"
#include "query/qet.h"

namespace sdss::archive {

/// What MyDb::AttachStorage rebuilt from disk.
struct MyDbRecoveryReport {
  uint64_t tables_loaded = 0;    ///< Committed snapshots restored.
  uint64_t orphans_removed = 0;  ///< Uncommitted/dropped files deleted.
  uint64_t bytes_loaded = 0;     ///< Sum of restored table payloads.
  persist::ReplayReport journal; ///< The journal replay outcome.
};

/// Thread-safe per-user namespace of named result stores.
///
/// Tables are shared-owned: Find and the resolver hand out an owner, so
/// a plan holding one (a queued or running job's prepared statement)
/// keeps reading the table as it stood when the plan was made, even
/// across a Drop. Drop frees the name and the quota at once; the store
/// itself goes when its last reader lets go.
class MyDb {
 public:
  struct Options {
    /// Byte budget per user, measured in stored PhotoObj payload.
    uint64_t per_user_quota_bytes = 64ull << 20;
    /// Clustering depth of materialized stores (matches the archive
    /// default so covers and predictions behave identically).
    int cluster_level = 6;
    /// Durable-store root. Empty = in-memory only (tables die with the
    /// process). Non-empty: call AttachStorage() before use.
    std::string persist_dir;
  };

  MyDb() : MyDb(Options()) {}
  explicit MyDb(Options options) : options_(std::move(options)) {}

  /// Recovers the namespace from Options::persist_dir and starts
  /// journaling subsequent changes there. Must be called before any
  /// table exists (i.e. right after construction) and requires a
  /// non-empty persist_dir. Idempotent per instance: a second call is
  /// FailedPrecondition.
  Result<MyDbRecoveryReport> AttachStorage();

  /// True once AttachStorage succeeded (changes are being journaled).
  bool persistent() const;

  /// Materializes `objects` as mydb.<name> for `user`. Fails with
  /// InvalidArgument when either name is not a valid on-disk name (see
  /// core ValidatePathComponent), AlreadyExists when the name is taken,
  /// and ResourceExhausted when the user's quota would be exceeded; in
  /// all cases nothing is stored, in memory or on disk.
  Status Put(const std::string& user, const std::string& name,
             std::vector<catalog::PhotoObj> objects);

  /// The store backing mydb.<name>, or NotFound.
  Result<std::shared_ptr<const catalog::ObjectStore>> Find(
      const std::string& user, const std::string& name) const;

  /// Drops mydb.<name>, releasing its bytes against the quota. Durably
  /// journaled before the table disappears from memory.
  Status Drop(const std::string& user, const std::string& name);

  /// Claims mydb.<name> for a materialization that has not run yet (a
  /// queued or running INTO job). Refused with AlreadyExists when the
  /// name is a table or already reserved, decided under this store's
  /// one lock, so of two same-name claims exactly one wins. A
  /// reservation blocks other Reserve calls only: Put checks tables, so
  /// the holder's own Put commits under it. In memory only; never
  /// journaled.
  Status Reserve(const std::string& user, const std::string& name);

  /// Drops a reservation (no-op when `name` is not reserved). The holder
  /// releases after its Put commits or fails, so a competing Reserve
  /// sees either the reservation or the table.
  void Release(const std::string& user, const std::string& name);

  /// (user, name) of every reservation, ascending.
  std::vector<std::pair<std::string, std::string>> Reservations() const;

  /// Table names owned by `user`, sorted.
  std::vector<std::string> List(const std::string& user) const;

  /// Overrides the byte quota of one user (journaled when persistent);
  /// other users keep Options::per_user_quota_bytes.
  Status SetQuota(const std::string& user, uint64_t quota_bytes);

  uint64_t UsedBytes(const std::string& user) const;
  uint64_t QuotaBytes(const std::string& user) const;
  uint64_t RemainingBytes(const std::string& user) const;
  const Options& options() const { return options_; }

  /// Binds `user`'s namespace as the planner's mydb resolver: unknown
  /// names resolve to null (the planner reports NotFound). The returned
  /// callable holds a reference to this MyDb; it must not outlive it.
  query::MyDbResolver ResolverFor(const std::string& user) const;

 private:
  struct UserSpace {
    std::map<std::string, std::shared_ptr<const catalog::ObjectStore>>
        tables;
    std::set<std::string> reserved;  ///< Names claimed by Reserve.
    uint64_t used_bytes = 0;
    std::optional<uint64_t> quota_override;
  };

  uint64_t QuotaLocked(const UserSpace* space) const;
  std::string TablePath(const std::string& user,
                        const std::string& name) const;

  Options options_;
  mutable std::mutex mu_;
  std::map<std::string, UserSpace> users_;
  std::unique_ptr<persist::Journal> journal_;  ///< Null until attached.
};

}  // namespace sdss::archive

#endif  // SDSS_ARCHIVE_MYDB_H_
