#include "archive/mydb.h"

#include <algorithm>
#include <utility>

#include "core/io.h"
#include "persist/coding.h"
#include "persist/snapshot.h"

namespace sdss::archive {
namespace {

/// Journal record types. The CREATE record is the commit point of a
/// materialization: it is appended only after the table's snapshot file
/// is durably in place.
enum class MyDbRecord : uint8_t { kCreate = 1, kDrop = 2, kQuota = 3 };

std::string EncodeCreate(const std::string& user, const std::string& name,
                         uint64_t bytes) {
  std::string rec;
  persist::PutFixed8(&rec, static_cast<uint8_t>(MyDbRecord::kCreate));
  persist::PutLengthPrefixed(&rec, user);
  persist::PutLengthPrefixed(&rec, name);
  persist::PutFixed64(&rec, bytes);
  return rec;
}

std::string EncodeDrop(const std::string& user, const std::string& name) {
  std::string rec;
  persist::PutFixed8(&rec, static_cast<uint8_t>(MyDbRecord::kDrop));
  persist::PutLengthPrefixed(&rec, user);
  persist::PutLengthPrefixed(&rec, name);
  return rec;
}

std::string EncodeQuota(const std::string& user, uint64_t quota) {
  std::string rec;
  persist::PutFixed8(&rec, static_cast<uint8_t>(MyDbRecord::kQuota));
  persist::PutLengthPrefixed(&rec, user);
  persist::PutFixed64(&rec, quota);
  return rec;
}

/// State a journal replay reconstructs before any snapshot is read.
struct ReplayedState {
  /// user -> name -> committed payload bytes.
  std::map<std::string, std::map<std::string, uint64_t>> live;
  std::map<std::string, uint64_t> quotas;
};

Status ApplyRecord(std::string_view record, ReplayedState* state) {
  persist::Cursor cursor(record);
  uint8_t type = 0;
  if (!cursor.GetFixed8(&type)) {
    return Status::Corruption("mydb journal record is empty");
  }
  std::string_view user, name;
  uint64_t bytes = 0;
  switch (static_cast<MyDbRecord>(type)) {
    case MyDbRecord::kCreate:
      if (!cursor.GetLengthPrefixed(&user) ||
          !cursor.GetLengthPrefixed(&name) || !cursor.GetFixed64(&bytes)) {
        return Status::Corruption("bad mydb CREATE record");
      }
      state->live[std::string(user)][std::string(name)] = bytes;
      return Status::OK();
    case MyDbRecord::kDrop:
      if (!cursor.GetLengthPrefixed(&user) ||
          !cursor.GetLengthPrefixed(&name)) {
        return Status::Corruption("bad mydb DROP record");
      }
      state->live[std::string(user)].erase(std::string(name));
      return Status::OK();
    case MyDbRecord::kQuota:
      if (!cursor.GetLengthPrefixed(&user) || !cursor.GetFixed64(&bytes)) {
        return Status::Corruption("bad mydb QUOTA record");
      }
      state->quotas[std::string(user)] = bytes;
      return Status::OK();
  }
  return Status::Corruption("unknown mydb journal record type " +
                            std::to_string(type));
}

constexpr char kSnapSuffix[] = ".snap";

bool HasSuffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

std::string MyDb::TablePath(const std::string& user,
                            const std::string& name) const {
  return options_.persist_dir + "/tables/" + user + "/" + name +
         kSnapSuffix;
}

Result<MyDbRecoveryReport> MyDb::AttachStorage() {
  if (options_.persist_dir.empty()) {
    return Status::InvalidArgument(
        "MyDb::AttachStorage requires Options::persist_dir");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (journal_ != nullptr) {
    return Status::FailedPrecondition("storage already attached");
  }
  if (!users_.empty()) {
    return Status::FailedPrecondition(
        "AttachStorage must run before any table exists");
  }
  const std::string journal_dir = options_.persist_dir + "/journal";
  const std::string tables_dir = options_.persist_dir + "/tables";
  SDSS_RETURN_IF_ERROR(CreateDirs(tables_dir));

  // 1. The journal decides what exists: replay create/drop/quota.
  MyDbRecoveryReport report;
  ReplayedState state;
  auto replay = persist::ReplayJournal(
      journal_dir,
      [&state](std::string_view rec) { return ApplyRecord(rec, &state); });
  if (!replay.ok()) return replay.status();
  report.journal = *replay;

  // 2. Load exactly the committed tables. A committed CREATE implies its
  // snapshot was durably renamed into place first, so a missing or
  // corrupt file here is real damage, not a crash artifact.
  for (const auto& [user, tables] : state.live) {
    for (const auto& [name, bytes] : tables) {
      const std::string path = TablePath(user, name);
      // Mapped cold start: adopt the snapshot's columns in place
      // (verified, no rebuild).
      auto store = persist::MapSnapshotStore(path);
      if (!store.ok()) {
        return Status::Corruption(
            "committed table mydb." + name + " of user '" + user +
            "' failed to load: " + store.status().ToString());
      }
      auto owned =
          std::make_shared<const catalog::ObjectStore>(std::move(*store));
      UserSpace& space = users_[user];
      const uint64_t loaded_bytes =
          owned->object_count() * sizeof(catalog::PhotoObj);
      space.used_bytes += loaded_bytes;
      space.tables.emplace(name, std::move(owned));
      ++report.tables_loaded;
      report.bytes_loaded += loaded_bytes;
    }
  }
  for (const auto& [user, quota] : state.quotas) {
    users_[user].quota_override = quota;
  }

  // 3. Sweep debris: .tmp leftovers and snapshots without a committed
  // CREATE (a crash mid-INTO, or a DROP whose unlink did not finish).
  auto user_dirs = ListDir(tables_dir);
  if (user_dirs.ok()) {
    for (const std::string& user : *user_dirs) {
      auto files = ListDir(tables_dir + "/" + user);
      if (!files.ok()) continue;
      for (const std::string& file : *files) {
        std::string name = file;
        bool orphan = false;
        if (HasSuffix(name, ".tmp")) {
          orphan = true;
        } else if (HasSuffix(name, kSnapSuffix)) {
          name.resize(name.size() - (sizeof(kSnapSuffix) - 1));
          auto uit = state.live.find(user);
          orphan =
              uit == state.live.end() || uit->second.count(name) == 0;
        }
        if (orphan) {
          if (RemoveFile(tables_dir + "/" + user + "/" + file).ok()) {
            ++report.orphans_removed;
          }
        }
      }
    }
  }

  // 4. Journal future changes (a fresh segment; old ones stay replayable).
  auto journal = persist::Journal::Open(journal_dir);
  if (!journal.ok()) return journal.status();
  journal_ = std::move(*journal);
  return report;
}

bool MyDb::persistent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return journal_ != nullptr;
}

Status MyDb::Put(const std::string& user, const std::string& name,
                 std::vector<catalog::PhotoObj> objects) {
  SDSS_RETURN_IF_ERROR(ValidatePathComponent(user, "mydb user name"));
  SDSS_RETURN_IF_ERROR(ValidatePathComponent(name, "mydb table name"));
  const uint64_t incoming_bytes =
      objects.size() * sizeof(catalog::PhotoObj);

  // Build the store outside the lock (clustering is the slow part), then
  // publish it atomically: readers either see the whole table or none.
  catalog::StoreOptions store_options;
  store_options.cluster_level = options_.cluster_level;
  store_options.build_tags = false;  // Personal stores hold full objects.
  auto store = std::make_unique<catalog::ObjectStore>(store_options);
  SDSS_RETURN_IF_ERROR(store->BulkLoad(std::move(objects)));

  std::lock_guard<std::mutex> lock(mu_);
  UserSpace& space = users_[user];
  if (space.tables.count(name) > 0) {
    return Status::AlreadyExists("mydb." + name +
                                 " already exists; DROP it first");
  }
  const uint64_t quota = QuotaLocked(&space);
  if (space.used_bytes + incoming_bytes > quota) {
    return Status::ResourceExhausted(
        "mydb quota exceeded for user '" + user + "': " +
        std::to_string(space.used_bytes + incoming_bytes) + " of " +
        std::to_string(quota) + " bytes");
  }
  if (journal_ != nullptr) {
    // Durable commit protocol: snapshot file first (atomic rename), THEN
    // the journaled CREATE as the commit point. A crash between the two
    // leaves an orphan file that recovery deletes -- never a visible
    // partial table.
    SDSS_RETURN_IF_ERROR(
        CreateDirs(options_.persist_dir + "/tables/" + user));
    persist::SnapshotWriter writer(TablePath(user, name));
    SDSS_RETURN_IF_ERROR(writer.Write(*store));
    Status committed =
        journal_->Append(EncodeCreate(user, name, incoming_bytes));
    if (!committed.ok()) {
      // Do NOT delete the snapshot: an un-acked CREATE may still reach
      // the disk (the journal is poisoned precisely because its sync
      // state is unknowable), and a durable CREATE without its file
      // would brick recovery. Either the CREATE never lands and the
      // next recovery sweeps the file as an orphan, or it lands and
      // the table is simply... there -- whole and committed.
      return committed;
    }
  }
  space.used_bytes += incoming_bytes;
  space.tables.emplace(name, std::move(store));
  return Status::OK();
}

Result<std::shared_ptr<const catalog::ObjectStore>> MyDb::Find(
    const std::string& user, const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto uit = users_.find(user);
  if (uit != users_.end()) {
    auto tit = uit->second.tables.find(name);
    if (tit != uit->second.tables.end()) return tit->second;
  }
  return Status::NotFound("mydb." + name + " does not exist");
}

Status MyDb::Drop(const std::string& user, const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto uit = users_.find(user);
  if (uit == users_.end() || uit->second.tables.count(name) == 0) {
    return Status::NotFound("mydb." + name + " does not exist");
  }
  if (journal_ != nullptr) {
    // The DROP record is the commit point; the unlink afterwards is
    // best-effort (recovery sweeps snapshots without a live CREATE).
    SDSS_RETURN_IF_ERROR(journal_->Append(EncodeDrop(user, name)));
    (void)RemoveFile(TablePath(user, name));
  }
  UserSpace& space = uit->second;
  uint64_t bytes =
      space.tables[name]->object_count() * sizeof(catalog::PhotoObj);
  space.used_bytes -= std::min(space.used_bytes, bytes);
  space.tables.erase(name);
  return Status::OK();
}

std::vector<std::string> MyDb::List(const std::string& user) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  auto uit = users_.find(user);
  if (uit != users_.end()) {
    for (const auto& [name, store] : uit->second.tables) {
      names.push_back(name);
    }
  }
  return names;
}

Status MyDb::SetQuota(const std::string& user, uint64_t quota_bytes) {
  SDSS_RETURN_IF_ERROR(ValidatePathComponent(user, "mydb user name"));
  std::lock_guard<std::mutex> lock(mu_);
  if (journal_ != nullptr) {
    SDSS_RETURN_IF_ERROR(journal_->Append(EncodeQuota(user, quota_bytes)));
  }
  users_[user].quota_override = quota_bytes;
  return Status::OK();
}

uint64_t MyDb::QuotaLocked(const UserSpace* space) const {
  if (space != nullptr && space->quota_override.has_value()) {
    return *space->quota_override;
  }
  return options_.per_user_quota_bytes;
}

uint64_t MyDb::UsedBytes(const std::string& user) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto uit = users_.find(user);
  return uit == users_.end() ? 0 : uit->second.used_bytes;
}

uint64_t MyDb::QuotaBytes(const std::string& user) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto uit = users_.find(user);
  return QuotaLocked(uit == users_.end() ? nullptr : &uit->second);
}

uint64_t MyDb::RemainingBytes(const std::string& user) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto uit = users_.find(user);
  const UserSpace* space = uit == users_.end() ? nullptr : &uit->second;
  const uint64_t quota = QuotaLocked(space);
  const uint64_t used = space == nullptr ? 0 : space->used_bytes;
  return used >= quota ? 0 : quota - used;
}

query::MyDbResolver MyDb::ResolverFor(const std::string& user) const {
  return [this, user](const std::string& name)
             -> std::shared_ptr<const catalog::ObjectStore> {
    auto found = Find(user, name);
    return found.ok() ? std::move(found).value() : nullptr;
  };
}

}  // namespace sdss::archive
