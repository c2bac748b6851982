// Crash-recovery fuzz: truncate a recorded session's journal at EVERY
// byte boundary and assert that replay / MyDB recovery always either
// fully restores the prefix or cleanly stops at the last valid frame --
// never errors out, never crashes, never exposes a partial table.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "archive/mydb.h"
#include "catalog/sky_generator.h"
#include "core/io.h"
#include "persist/journal.h"
#include "persist/snapshot.h"

namespace sdss::persist {
namespace {

namespace fs = std::filesystem;

fs::path FreshDir(const std::string& name) {
  fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir;
}

TEST(PersistRecoveryFuzzTest, JournalTruncatedAtEveryByteReplaysAPrefix) {
  const fs::path dir = FreshDir("fuzz_journal_session");
  std::vector<std::string> session;
  {
    auto journal = Journal::Open(dir.string());
    ASSERT_TRUE(journal.ok());
    for (int i = 0; i < 12; ++i) {
      session.push_back("op-" + std::to_string(i) + "-" +
                        std::string(static_cast<size_t>(i * 7), 'p'));
      ASSERT_TRUE((*journal)->Append(session.back()).ok());
    }
  }
  auto segments = ListJournalSegments(dir.string());
  ASSERT_EQ(segments.size(), 1u);
  const fs::path segment = dir / segments[0];
  auto full = ReadFileToString(segment.string());
  ASSERT_TRUE(full.ok());

  for (uint64_t len = 0; len <= full->size(); ++len) {
    fs::resize_file(segment, len);
    std::vector<std::string> replayed;
    auto report =
        ReplayJournal(dir.string(), [&replayed](std::string_view rec) {
          replayed.emplace_back(rec);
          return Status::OK();
        });
    // Replay NEVER errors on truncation -- a torn tail is an expected
    // crash artifact, not corruption of committed state.
    ASSERT_TRUE(report.ok())
        << "replay failed at truncation " << len << ": "
        << report.status().ToString();
    // What replays is an exact prefix of the session.
    ASSERT_LE(replayed.size(), session.size());
    for (size_t i = 0; i < replayed.size(); ++i) {
      ASSERT_EQ(replayed[i], session[i]) << "at truncation " << len;
    }
    EXPECT_EQ(report->records, replayed.size());
  }
  fs::remove_all(dir);
}

/// The MyDB-level version: a session of creates/drops/quota updates is
/// recorded, then the journal is cut at every byte and a fresh MyDb
/// recovers from the wreckage. The on-disk table state is the pre-DROP
/// one -- the unlink strictly follows the journaled DROP, so any torn
/// journal tail coexists with the files still in place, which is
/// exactly what the orphan sweep must digest. Every recovery must
/// succeed, and every visible table must be the complete, bit-exact
/// committed one.
TEST(PersistRecoveryFuzzTest, MyDbRecoversCleanlyFromEveryTruncation) {
  using archive::MyDb;

  // Record one real session into `master`, capturing the tables
  // directory as it stood before the DROP's unlink.
  const fs::path master = FreshDir("fuzz_mydb_master");
  const fs::path predrop_tables = FreshDir("fuzz_mydb_predrop_tables");
  catalog::SkyModel model;
  model.seed = 4242;
  model.num_galaxies = 400;
  model.num_stars = 200;
  model.num_quasars = 10;
  std::vector<catalog::PhotoObj> sky =
      catalog::SkyGenerator(model).Generate();
  std::vector<catalog::PhotoObj> first(sky.begin(), sky.begin() + 300);
  std::vector<catalog::PhotoObj> second(sky.begin() + 300, sky.end());

  std::map<std::string, std::string> committed_bytes;
  {
    MyDb::Options options;
    options.persist_dir = master.string();
    MyDb mydb(options);
    ASSERT_TRUE(mydb.AttachStorage().ok());
    ASSERT_TRUE(mydb.Put("alice", "keep", first).ok());
    ASSERT_TRUE(mydb.SetQuota("alice", 32ull << 20).ok());
    ASSERT_TRUE(mydb.Put("alice", "dropme", second).ok());
    ASSERT_TRUE(mydb.Put("bob", "mine", second).ok());
    for (const auto& [user, name] :
         std::vector<std::pair<std::string, std::string>>{
             {"alice", "keep"}, {"alice", "dropme"}, {"bob", "mine"}}) {
      auto found = mydb.Find(user, name);
      ASSERT_TRUE(found.ok());
      committed_bytes[user + "/" + name] = EncodeSnapshot(**found);
    }
    fs::copy(master / "tables", predrop_tables,
             fs::copy_options::recursive);
    ASSERT_TRUE(mydb.Drop("alice", "dropme").ok());
  }
  auto segments = ListJournalSegments((master / "journal").string());
  ASSERT_EQ(segments.size(), 1u);
  auto full =
      ReadFileToString((master / "journal" / segments[0]).string());
  ASSERT_TRUE(full.ok());

  const fs::path scratch = FreshDir("fuzz_mydb_scratch");
  for (uint64_t len = 0; len <= full->size(); ++len) {
    fs::remove_all(scratch);
    fs::create_directories(scratch / "journal");
    fs::copy(predrop_tables, scratch / "tables",
             fs::copy_options::recursive);
    {
      std::ofstream f(scratch / "journal" / segments[0],
                      std::ios::binary | std::ios::trunc);
      f.write(full->data(), static_cast<std::streamsize>(len));
    }

    MyDb::Options options;
    options.persist_dir = scratch.string();
    MyDb recovered(options);
    auto report = recovered.AttachStorage();
    ASSERT_TRUE(report.ok())
        << "recovery failed at truncation " << len << ": "
        << report.status().ToString();

    // Whatever is visible is a COMMITTED table, whole and bit-exact.
    size_t visible = 0;
    for (const char* who : {"alice", "bob"}) {
      const std::string user(who);
      for (const std::string& name : recovered.List(user)) {
        ++visible;
        auto found = recovered.Find(user, name);
        ASSERT_TRUE(found.ok());
        auto want = committed_bytes.find(user + "/" + name);
        ASSERT_NE(want, committed_bytes.end())
            << "unknown table " << user << "/" << name
            << " at truncation " << len;
        ASSERT_EQ(EncodeSnapshot(**found), want->second)
            << "partial or mutated table " << user << "/" << name
            << " at truncation " << len;
      }
    }
    ASSERT_LE(visible, committed_bytes.size());

    // The full journal replays to the post-DROP state: the dropped
    // table's still-on-disk snapshot is swept as an orphan, not
    // resurrected.
    if (len == full->size()) {
      EXPECT_EQ(recovered.List("alice"),
                std::vector<std::string>{"keep"});
      EXPECT_EQ(recovered.List("bob"), std::vector<std::string>{"mine"});
      EXPECT_EQ(recovered.QuotaBytes("alice"), 32ull << 20);
      EXPECT_GE(report->orphans_removed, 1u);
    }
    if (len == 0) {
      EXPECT_TRUE(recovered.List("alice").empty());
      EXPECT_TRUE(recovered.List("bob").empty());
      // Nothing committed: every snapshot on disk is an orphan.
      EXPECT_EQ(report->orphans_removed, 3u);
    }
  }
  fs::remove_all(master);
  fs::remove_all(predrop_tables);
  fs::remove_all(scratch);
}

/// A table committed AFTER a crash must survive the NEXT crash: the
/// second recovery replays past the first crash's torn tail into the
/// second incarnation's segment. (A replay that stopped at the first
/// torn frame would miss the gen-2 CREATE and sweep its snapshot as an
/// orphan -- deleting a durably committed table.)
TEST(PersistRecoveryFuzzTest, TablesCommittedAfterACrashSurviveTheNext) {
  using archive::MyDb;
  const fs::path dir = FreshDir("fuzz_mydb_generations");
  catalog::SkyModel model;
  model.seed = 777;
  model.num_galaxies = 150;
  model.num_stars = 80;
  model.num_quasars = 5;
  std::vector<catalog::PhotoObj> sky =
      catalog::SkyGenerator(model).Generate();

  MyDb::Options options;
  options.persist_dir = dir.string();
  {
    MyDb gen1(options);
    ASSERT_TRUE(gen1.AttachStorage().ok());
    ASSERT_TRUE(gen1.Put("alice", "first", sky).ok());
  }
  // Crash artifact: a half-written frame at the tail of segment 1.
  auto segments = ListJournalSegments((dir / "journal").string());
  ASSERT_EQ(segments.size(), 1u);
  {
    std::ofstream f(dir / "journal" / segments[0],
                    std::ios::binary | std::ios::app);
    f.write("\xde\xad\xbe", 3);
  }
  {
    MyDb gen2(options);
    auto report = gen2.AttachStorage();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_GT(report->journal.dropped_bytes, 0u);
    EXPECT_EQ(gen2.List("alice"), std::vector<std::string>{"first"});
    ASSERT_TRUE(gen2.Put("alice", "second", sky).ok());
  }
  MyDb gen3(options);
  auto report = gen3.AttachStorage();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->tables_loaded, 2u);
  EXPECT_EQ(report->orphans_removed, 0u);
  std::vector<std::string> both = {"first", "second"};
  EXPECT_EQ(gen3.List("alice"), both);
  fs::remove_all(dir);
}

/// The mmap'd snapshot path gets the same per-byte hostility as the
/// journal: a snapshot file cut at EVERY byte boundary must map to a
/// clean kCorruption -- never a crash, never a partial store -- and the
/// untouched file must map whole.
TEST(PersistRecoveryFuzzTest, MappedSnapshotTruncatedAtEveryByteRejected) {
  const fs::path dir = FreshDir("fuzz_mapped_truncate");
  fs::create_directories(dir);
  catalog::SkyModel model;
  model.seed = 515;
  model.num_galaxies = 30;
  model.num_stars = 15;
  model.num_quasars = 5;
  catalog::ObjectStore store;
  ASSERT_TRUE(
      store.BulkLoad(catalog::SkyGenerator(model).Generate()).ok());
  const std::string encoded = EncodeSnapshot(store);
  const fs::path path = dir / "t.snap";
  ASSERT_TRUE(WriteFileDurable(path.string(), encoded).ok());

  auto whole = MapSnapshotStore(path.string());
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  ASSERT_EQ(whole->object_count(), store.object_count());

  for (uint64_t len = 0; len < encoded.size(); ++len) {
    fs::resize_file(path, len);
    auto r = MapSnapshotStore(path.string());
    ASSERT_FALSE(r.ok()) << "truncation at " << len << " mapped";
    ASSERT_EQ(r.status().code(), StatusCode::kCorruption)
        << "truncation at " << len << ": " << r.status().ToString();
  }
  fs::remove_all(dir);
}

/// Every single-bit flip anywhere in the file -- magic, header,
/// container payload, CRC trailer -- must be rejected whole with
/// kCorruption before any column view is exposed.
TEST(PersistRecoveryFuzzTest, MappedSnapshotBitFlipAtEveryByteRejected) {
  const fs::path dir = FreshDir("fuzz_mapped_bitflip");
  fs::create_directories(dir);
  catalog::SkyModel model;
  model.seed = 616;
  model.num_galaxies = 30;
  model.num_stars = 15;
  model.num_quasars = 5;
  catalog::ObjectStore store;
  ASSERT_TRUE(
      store.BulkLoad(catalog::SkyGenerator(model).Generate()).ok());
  const std::string encoded = EncodeSnapshot(store);
  const fs::path path = dir / "t.snap";

  for (size_t pos = 0; pos < encoded.size(); ++pos) {
    std::string bad = encoded;
    // Rotate the flipped bit with the position so every bit lane in
    // every byte class gets hit across the sweep.
    bad[pos] = static_cast<char>(bad[pos] ^ (1u << (pos % 8)));
    {
      std::ofstream f(path, std::ios::binary | std::ios::trunc);
      f.write(bad.data(), static_cast<std::streamsize>(bad.size()));
    }
    auto r = MapSnapshotStore(path.string());
    ASSERT_FALSE(r.ok()) << "bit flip at " << pos << " mapped";
    ASSERT_EQ(r.status().code(), StatusCode::kCorruption)
        << "bit flip at " << pos << ": " << r.status().ToString();
  }
  fs::remove_all(dir);
}

/// MyDB cold start through the mapped path: recovery adopts each table
/// as column views over its snapshot file (no rebuild) and the mapped
/// table re-encodes to the bytes the writer's table encodes to.
TEST(PersistRecoveryFuzzTest, MyDbMappedRecoveryColdStartsColumnar) {
  using archive::MyDb;
  const fs::path dir = FreshDir("fuzz_mydb_mapped_coldstart");
  catalog::SkyModel model;
  model.seed = 717;
  model.num_galaxies = 300;
  model.num_stars = 150;
  model.num_quasars = 10;
  std::vector<catalog::PhotoObj> sky =
      catalog::SkyGenerator(model).Generate();

  MyDb::Options options;
  options.persist_dir = dir.string();
  std::string written;
  {
    MyDb writer(options);
    ASSERT_TRUE(writer.AttachStorage().ok());
    ASSERT_TRUE(writer.Put("alice", "t", sky).ok());
    auto table = writer.Find("alice", "t");
    ASSERT_TRUE(table.ok());
    written = EncodeSnapshot(**table);
  }

  MyDb mapped(options);
  ASSERT_TRUE(mapped.AttachStorage().ok());
  auto mapped_table = mapped.Find("alice", "t");
  ASSERT_TRUE(mapped_table.ok());
  // Every container is a view over the mapped file, which refuses
  // mutation (an extracted copy shares the view).
  for (const auto& [raw, c] : (*mapped_table)->containers()) {
    ASSERT_GT(c.size(), 0u) << "container " << raw;
    catalog::ObjectStore copy = (*mapped_table)->ExtractContainers({raw});
    EXPECT_EQ(copy.Insert(c.columnar.MaterializeObject(0)).code(),
              StatusCode::kFailedPrecondition)
        << "container " << raw;
  }

  EXPECT_EQ((*mapped_table)->object_count(), sky.size());
  EXPECT_EQ(EncodeSnapshot(**mapped_table), written);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace sdss::persist
