// Journal: framed append/replay round trips, segment rotation, reopen
// semantics, and clean torn-tail / corruption stops.

#include "persist/journal.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/eventlog.h"
#include "core/io.h"
#include "core/metrics.h"

namespace sdss::persist {
namespace {

namespace fs = std::filesystem;

class PersistJournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("journal_") +
            ::testing::UnitTest::GetInstance()
                ->current_test_info()
                ->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::vector<std::string> Replay(ReplayReport* report = nullptr) {
    std::vector<std::string> records;
    auto r = ReplayJournal(dir_.string(), [&](std::string_view rec) {
      records.emplace_back(rec);
      return Status::OK();
    });
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (report != nullptr && r.ok()) *report = *r;
    return records;
  }

  fs::path dir_;
};

TEST_F(PersistJournalTest, AppendThenReplayRoundTrips) {
  std::vector<std::string> written = {"alpha", "", "b",
                                      std::string(3000, 'x'),
                                      std::string("\0\x01\xff bin", 8)};
  {
    auto journal = Journal::Open(dir_.string());
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    for (const std::string& rec : written) {
      ASSERT_TRUE((*journal)->Append(rec).ok());
    }
    EXPECT_EQ((*journal)->records_appended(), written.size());
  }
  ReplayReport report;
  EXPECT_EQ(Replay(&report), written);
  EXPECT_EQ(report.records, written.size());
  EXPECT_EQ(report.dropped_bytes, 0u);
  EXPECT_TRUE(report.tail_note.empty());
}

TEST_F(PersistJournalTest, RotatesSegmentsAndReplaysAcrossThem) {
  Journal::Options options;
  options.segment_bytes = 64;  // A few records per segment.
  auto journal = Journal::Open(dir_.string(), options);
  ASSERT_TRUE(journal.ok());
  std::vector<std::string> written;
  for (int i = 0; i < 40; ++i) {
    written.push_back("record-" + std::to_string(i));
    ASSERT_TRUE((*journal)->Append(written.back()).ok());
  }
  EXPECT_GT((*journal)->current_segment(), 1u);
  EXPECT_GT(ListJournalSegments(dir_.string()).size(), 1u);
  EXPECT_EQ(Replay(), written);
}

TEST_F(PersistJournalTest, ReopenNeverAppendsToAnOldSegment) {
  {
    auto j1 = Journal::Open(dir_.string());
    ASSERT_TRUE(j1.ok());
    ASSERT_TRUE((*j1)->Append("first-incarnation").ok());
    EXPECT_EQ((*j1)->current_segment(), 1u);
  }
  {
    auto j2 = Journal::Open(dir_.string());
    ASSERT_TRUE(j2.ok());
    EXPECT_EQ((*j2)->current_segment(), 2u);
    ASSERT_TRUE((*j2)->Append("second-incarnation").ok());
  }
  std::vector<std::string> expect = {"first-incarnation",
                                     "second-incarnation"};
  EXPECT_EQ(Replay(), expect);
}

TEST_F(PersistJournalTest, TornTailStopsAtLastValidFrame) {
  {
    auto journal = Journal::Open(dir_.string());
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->Append("kept-1").ok());
    ASSERT_TRUE((*journal)->Append("kept-2").ok());
  }
  // A crash mid-write: half a frame header and nothing else.
  auto segments = ListJournalSegments(dir_.string());
  ASSERT_EQ(segments.size(), 1u);
  {
    std::ofstream f(dir_ / segments[0],
                    std::ios::binary | std::ios::app);
    f.write("\x12\x34\x56", 3);
  }
  ReplayReport report;
  std::vector<std::string> expect = {"kept-1", "kept-2"};
  EXPECT_EQ(Replay(&report), expect);
  EXPECT_EQ(report.dropped_bytes, 3u);
  EXPECT_NE(report.tail_note.find("torn frame"), std::string::npos);
}

TEST_F(PersistJournalTest, CorruptPayloadStopsWithoutApplyingIt) {
  {
    auto journal = Journal::Open(dir_.string());
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->Append("good-record").ok());
    ASSERT_TRUE((*journal)->Append("to-be-corrupted").ok());
  }
  auto segments = ListJournalSegments(dir_.string());
  ASSERT_EQ(segments.size(), 1u);
  const fs::path path = dir_ / segments[0];
  auto data = ReadFileToString(path.string());
  ASSERT_TRUE(data.ok());
  std::string bytes = *data;
  bytes[bytes.size() - 3] ^= 0x40;  // Flip a bit inside record 2.
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  ReplayReport report;
  std::vector<std::string> expect = {"good-record"};
  EXPECT_EQ(Replay(&report), expect);
  EXPECT_GT(report.dropped_bytes, 0u);
  EXPECT_NE(report.tail_note.find("CRC"), std::string::npos);
}

TEST_F(PersistJournalTest, TornTailInEarlierSegmentDoesNotMaskLaterOnes) {
  // Generation 1 crashes mid-append; generation 2 (which, like every
  // reopen, starts a fresh segment) commits more records. Replay must
  // drop only the torn tail and still deliver generation 2 -- stopping
  // at the first torn frame would silently lose committed records.
  {
    auto gen1 = Journal::Open(dir_.string());
    ASSERT_TRUE(gen1.ok());
    ASSERT_TRUE((*gen1)->Append("gen1-committed").ok());
  }
  auto segments = ListJournalSegments(dir_.string());
  ASSERT_EQ(segments.size(), 1u);
  {
    std::ofstream f(dir_ / segments[0],
                    std::ios::binary | std::ios::app);
    f.write("\x01\x02\x03\x04\x05", 5);  // The torn frame.
  }
  {
    auto gen2 = Journal::Open(dir_.string());
    ASSERT_TRUE(gen2.ok());
    ASSERT_TRUE((*gen2)->Append("gen2-committed").ok());
  }
  ReplayReport report;
  std::vector<std::string> expect = {"gen1-committed", "gen2-committed"};
  EXPECT_EQ(Replay(&report), expect);
  EXPECT_EQ(report.dropped_bytes, 5u);
  EXPECT_NE(report.tail_note.find("torn frame"), std::string::npos);
}

TEST_F(PersistJournalTest, MissingDirectoryReplaysNothing) {
  ReplayReport report;
  EXPECT_TRUE(Replay(&report).empty());
  EXPECT_EQ(report.segments, 0u);
}

TEST_F(PersistJournalTest, ApplyErrorAbortsReplay) {
  {
    auto journal = Journal::Open(dir_.string());
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->Append("poison").ok());
  }
  auto r = ReplayJournal(dir_.string(), [](std::string_view) {
    return Status::Corruption("boom");
  });
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

TEST_F(PersistJournalTest, RotationFailurePoisonsWithGaugeAndEvent) {
  // Sabotage rotation by replacing the journal directory with a plain
  // file: the next append must rotate, cannot open a segment, and the
  // journal latches POISONED -- flipping the gauge the health watchdog
  // reads and emitting the journal_poisoned event.
  metrics::Registry registry;
  const std::string events_dir = dir_.string() + "_events";
  fs::remove_all(events_dir);
  auto events = EventLog::Open(events_dir);
  ASSERT_TRUE(events.ok());

  Journal::Options options;
  options.segment_bytes = 1;  // Rotate on every append.
  options.metrics = &registry;
  options.events = events->get();
  auto journal = Journal::Open(dir_.string(), options);
  ASSERT_TRUE(journal.ok());
  EXPECT_EQ(registry.GetGauge("persist_journal_poisoned")->Value(), 0);
  EXPECT_TRUE((*journal)->health().ok());
  EXPECT_FALSE((*journal)->poisoned());
  ASSERT_TRUE((*journal)->Append("healthy").ok());

  fs::remove_all(dir_);
  { std::ofstream block(dir_.string()); block << "not a directory"; }

  Status failed = (*journal)->Append("doomed");
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE((*journal)->poisoned());
  EXPECT_EQ((*journal)->health().code(), failed.code());
  EXPECT_EQ(registry.GetGauge("persist_journal_poisoned")->Value(), 1);
  // Latched: every later append answers the original error.
  EXPECT_FALSE((*journal)->Append("still doomed").ok());
  EXPECT_EQ((*events)->events_written(), 1u);
  bool found = false;
  for (const std::string& name : ListEventLogFiles(events_dir)) {
    std::ifstream in(fs::path(events_dir) / name);
    std::string line;
    while (std::getline(in, line)) {
      if (line.find("\"event\":\"journal_poisoned\"") != std::string::npos &&
          line.find("\"severity\":\"ERROR\"") != std::string::npos) {
        found = true;
      }
    }
  }
  EXPECT_TRUE(found);
  fs::remove_all(events_dir);
  fs::remove_all(dir_.string());
}

TEST_F(PersistJournalTest, SegmentNamesAreOrderedAndDurable) {
  Journal::Options options;
  options.segment_bytes = 1;  // Rotate on every append.
  auto journal = Journal::Open(dir_.string(), options);
  ASSERT_TRUE(journal.ok());
  for (int i = 0; i < 12; ++i) {
    std::string record = "r";
    record += std::to_string(i);
    ASSERT_TRUE((*journal)->Append(record).ok());
  }
  auto segments = ListJournalSegments(dir_.string());
  ASSERT_GE(segments.size(), 12u);
  for (size_t i = 1; i < segments.size(); ++i) {
    EXPECT_LT(segments[i - 1], segments[i]);
  }
}

}  // namespace
}  // namespace sdss::persist
