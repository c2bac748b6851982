// The slow-query contract: a job whose run time reaches
// slow_query_seconds emits one slow_query event whenever the scheduler
// has an event log, and -- only when it has a trace ring, the one place
// captures live -- runs traced and pushes its chrome://tracing capture
// there, with the event naming the capture's ring id.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "archive/mydb.h"
#include "archive/sharded_store.h"
#include "catalog/sky_generator.h"
#include "core/eventlog.h"
#include "core/io.h"
#include "query/trace.h"
#include "query/federated_engine.h"
#include "workbench/scheduler.h"

namespace sdss::workbench {
namespace {

using archive::MyDb;
using archive::ReplicationOptions;
using archive::ShardedStore;
using query::FederatedQueryEngine;

class SlowLogTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog::SkyModel m;
    m.seed = 2200;
    m.num_galaxies = 6000;
    m.num_stars = 5000;
    m.num_quasars = 100;
    source_ = new catalog::ObjectStore();
    ASSERT_TRUE(
        source_->BulkLoad(catalog::SkyGenerator(m).Generate()).ok());
    ReplicationOptions repl;
    repl.num_servers = 2;
    repl.base_replicas = 1;
    sharded_ = new ShardedStore(*source_, repl);
    auto shards = sharded_->LiveShards();
    ASSERT_TRUE(shards.ok());
    engine_ = new FederatedQueryEngine(*shards);
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete sharded_;
    delete source_;
    engine_ = nullptr;
    sharded_ = nullptr;
    source_ = nullptr;
  }

  std::string TempDir(const char* tag) {
    std::string dir = ::testing::TempDir() + "slowlog_" + tag + "_" +
                      std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    return dir;
  }

  /// Every event-log line of `log` that reports a slow_query.
  static std::vector<std::string> SlowQueryLines(const EventLog& log) {
    std::vector<std::string> lines;
    for (const std::string& name : ListEventLogFiles(log.dir())) {
      auto data = ReadFileToString(log.dir() + "/" + name);
      if (!data.ok()) continue;
      size_t start = 0;
      while (start < data->size()) {
        size_t end = data->find('\n', start);
        if (end == std::string::npos) end = data->size();
        std::string line = data->substr(start, end - start);
        if (line.find("\"event\":\"slow_query\"") != std::string::npos) {
          lines.push_back(std::move(line));
        }
        start = end + 1;
      }
    }
    return lines;
  }

  static catalog::ObjectStore* source_;
  static ShardedStore* sharded_;
  static FederatedQueryEngine* engine_;
};

catalog::ObjectStore* SlowLogTest::source_ = nullptr;
ShardedStore* SlowLogTest::sharded_ = nullptr;
FederatedQueryEngine* SlowLogTest::engine_ = nullptr;

TEST_F(SlowLogTest, SlowJobEmitsEventAndLandsInTraceRing) {
  auto events = EventLog::Open(TempDir("ring_events"));
  ASSERT_TRUE(events.ok());
  query::TraceRing ring(8);
  JobScheduler::Options opt;
  opt.quick_workers = 1;
  opt.long_workers = 1;
  opt.slow_query_seconds = 0.0;  // Every job is "slow".
  opt.events = events->get();
  opt.trace_ring = &ring;
  MyDb mydb;
  JobScheduler scheduler(engine_, &mydb, opt);

  auto job = scheduler.Submit(
      "ana", "SELECT COUNT(*) FROM photo WHERE r < 22");
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE(scheduler.Wait(*job).ok());

  // The capture is in the /tracez ring, flagged slow, with the full
  // chrome JSON: the job's identity and its stage spans.
  auto captures = ring.List();
  ASSERT_EQ(captures.size(), 1u);
  EXPECT_EQ(captures[0].job_id, *job);
  EXPECT_EQ(captures[0].user, "ana");
  EXPECT_TRUE(captures[0].slow);
  EXPECT_GT(captures[0].seconds, 0.0);
  const std::string& json = captures[0].chrome_json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"admission_wait\""), std::string::npos);
  EXPECT_NE(json.find("\"fan_out\""), std::string::npos);
  EXPECT_NE(json.find("COUNT(*)"), std::string::npos);
  EXPECT_NE(json.find("\"user\":\"ana\""), std::string::npos);
  EXPECT_EQ(ring.Find(captures[0].id).job_id, *job);
  EXPECT_EQ(ring.Find(9999).id, 0u);  // Unknown id: empty capture.

  // One slow_query event carries user, SQL, run time, and the ring id
  // /tracez?id= finds the capture under.
  EXPECT_EQ((*events)->events_written(), 1u);
  auto lines = SlowQueryLines(**events);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"user\":\"ana\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"seconds\":"), std::string::npos);
  const std::string trace_field =
      "\"trace\":\"" + std::to_string(captures[0].id) + "\"";
  EXPECT_NE(lines[0].find(trace_field), std::string::npos) << lines[0];
}

TEST_F(SlowLogTest, SlowQueryEventFiresWithoutTraceRing) {
  // Slowness is the run time alone: with an event log and no ring the
  // job runs untraced, yet still reports itself -- once, and with no
  // trace id, since nothing was captured.
  auto events = EventLog::Open(TempDir("events_only"));
  ASSERT_TRUE(events.ok());
  JobScheduler::Options opt;
  opt.quick_workers = 1;
  opt.long_workers = 1;
  opt.slow_query_seconds = 0.0;  // Every job is "slow".
  opt.events = events->get();
  MyDb mydb;
  JobScheduler scheduler(engine_, &mydb, opt);

  auto job = scheduler.Submit(
      "ana", "SELECT COUNT(*) FROM photo WHERE r < 21");
  ASSERT_TRUE(job.ok());
  auto snap = scheduler.Wait(*job);
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->state, JobState::kSucceeded);

  auto lines = SlowQueryLines(**events);
  ASSERT_EQ(lines.size(), 1u);
  const std::string id_field = "\"id\":" + std::to_string(*job);
  EXPECT_NE(lines[0].find(id_field), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("\"user\":\"ana\""), std::string::npos);
  EXPECT_EQ(lines[0].find("\"trace\":"), std::string::npos) << lines[0];
}

TEST_F(SlowLogTest, TraceRingSamplingWithoutSlowlogDir) {
  // The ring alone enables tracing, and with trace_sample_every=1 every
  // job is pushed (slow=false under a high threshold).
  query::TraceRing ring(4);
  JobScheduler::Options opt;
  opt.quick_workers = 1;
  opt.long_workers = 1;
  opt.slow_query_seconds = 3600.0;
  opt.trace_ring = &ring;
  opt.trace_sample_every = 1;
  MyDb mydb;
  JobScheduler scheduler(engine_, &mydb, opt);

  for (int i = 0; i < 6; ++i) {
    auto job = scheduler.Submit("ana", "SELECT COUNT(*) FROM photo");
    ASSERT_TRUE(job.ok());
    ASSERT_TRUE(scheduler.Wait(*job).ok());
  }
  EXPECT_EQ(ring.pushes(), 6u);
  auto captures = ring.List();
  ASSERT_EQ(captures.size(), 4u);  // Ring capacity bounds retention.
  for (const auto& capture : captures) EXPECT_FALSE(capture.slow);
  // Newest first: ids descend.
  for (size_t i = 1; i < captures.size(); ++i) {
    EXPECT_GT(captures[i - 1].id, captures[i].id);
  }
}

TEST_F(SlowLogTest, TracedJobRecordsItsAdmissionPlanOnce) {
  // Planning happens at admission, before the job's trace exists; the
  // run does not plan again, so the capture holds exactly one plan span,
  // carrying the admission's plan time.
  query::TraceRing ring(4);
  JobScheduler::Options opt;
  opt.quick_workers = 1;
  opt.long_workers = 1;
  opt.slow_query_seconds = 3600.0;
  opt.trace_ring = &ring;
  opt.trace_sample_every = 1;
  MyDb mydb;
  JobScheduler scheduler(engine_, &mydb, opt);
  auto job = scheduler.Submit(
      "ana", "SELECT COUNT(*) FROM photo WHERE CIRCLE('GAL', 30, 70, 5)");
  ASSERT_TRUE(job.ok());
  ASSERT_EQ(scheduler.Wait(*job)->state, JobState::kSucceeded);

  auto captures = ring.List();
  ASSERT_EQ(captures.size(), 1u);
  const std::string& json = captures[0].chrome_json;
  size_t plan_spans = 0;
  for (size_t at = json.find("\"name\":\"plan\"");
       at != std::string::npos;
       at = json.find("\"name\":\"plan\"", at + 1)) {
    ++plan_spans;
  }
  EXPECT_EQ(plan_spans, 1u) << json;
  EXPECT_NE(json.find("\"seconds_plan\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"fan_out\""), std::string::npos) << json;
}

TEST_F(SlowLogTest, NoSlowlogDirMeansNoTracingNoFiles) {
  // No ring and no event log: a slow job has nowhere to report, runs
  // untraced, and still succeeds.
  JobScheduler::Options opt;
  opt.quick_workers = 1;
  opt.long_workers = 1;
  opt.slow_query_seconds = 0.0;
  MyDb mydb;
  JobScheduler scheduler(engine_, &mydb, opt);
  auto job = scheduler.Submit("ana", "SELECT COUNT(*) FROM photo");
  ASSERT_TRUE(job.ok());
  auto snap = scheduler.Wait(*job);
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->state, JobState::kSucceeded);
}

}  // namespace
}  // namespace sdss::workbench
