// EXPLAIN ANALYZE: the optimizer's per-shard predictions stitched to a
// real traced run. On the full photo store the density-map prediction
// is exact (both sides sum the same container byte sizes), which is
// the strongest pin a test can hold the cost model to; tag-store scans
// may only overestimate.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "archive/mydb.h"
#include "archive/sharded_store.h"
#include "federation/federation_test_util.h"
#include "query/federated_engine.h"

namespace sdss::query {
namespace {

using archive::ReplicationOptions;
using archive::ShardedStore;

class ExplainAnalyzeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    source_ = new catalog::ObjectStore(
        federation_test::MakeSky(3300, 9000, 7000, 200));
    ReplicationOptions repl;
    repl.num_servers = 3;
    repl.base_replicas = 1;
    sharded_ = new ShardedStore(*source_, repl);
  }
  static void TearDownTestSuite() {
    delete sharded_;
    delete source_;
    sharded_ = nullptr;
    source_ = nullptr;
  }

  static catalog::ObjectStore* source_;
  static ShardedStore* sharded_;
};

catalog::ObjectStore* ExplainAnalyzeTest::source_ = nullptr;
ShardedStore* ExplainAnalyzeTest::sharded_ = nullptr;

TEST_F(ExplainAnalyzeTest, PhotoScanPredictionIsExact) {
  auto shards = sharded_->LiveShards();
  ASSERT_TRUE(shards.ok());
  // Force the full photo store: its prediction and its scan sum the
  // same container sizes, so predicted == actual to the byte.
  FederatedQueryEngine::Options options;
  options.planner.auto_tag_selection = false;
  FederatedQueryEngine engine(*shards, options);

  auto analysis = engine.ExplainAnalyze(
      "SELECT obj_id, r FROM photo WHERE r < 20.5");
  ASSERT_TRUE(analysis.ok());

  ASSERT_EQ(analysis->shards.size(), 3u);
  uint64_t predicted_total = 0, actual_total = 0, rows_total = 0;
  for (const auto& shard : analysis->shards) {
    EXPECT_EQ(shard.predicted_bytes, shard.actual_bytes)
        << "shard " << shard.server;
    EXPECT_EQ(shard.containers_predicted, shard.containers_scanned)
        << "shard " << shard.server;
    EXPECT_GT(shard.actual_bytes, 0u);
    predicted_total += shard.predicted_bytes;
    actual_total += shard.actual_bytes;
    rows_total += shard.rows;
  }
  EXPECT_EQ(predicted_total, actual_total);
  EXPECT_EQ(rows_total, analysis->exec.rows_emitted);
  EXPECT_EQ(actual_total, analysis->exec.bytes_touched);

  // The report carries both sides of the ledger and the stage line.
  EXPECT_NE(analysis->report.find("federation: 3 live shards"),
            std::string::npos);
  EXPECT_NE(analysis->report.find("bytes: predicted"), std::string::npos);
  EXPECT_NE(analysis->report.find("stages: plan"), std::string::npos);
  EXPECT_GT(analysis->exec.seconds_total, 0.0);
  // The traced run exports chrome://tracing JSON with the span forest.
  EXPECT_NE(analysis->trace_json.find("\"fan_out\""), std::string::npos);
  EXPECT_NE(analysis->trace_json.find("\"shard\""), std::string::npos);
}

TEST_F(ExplainAnalyzeTest, OneServerFleetKeepsTheExactLedger) {
  // A fleet of one runs the single-store shape -- one executor, no
  // merge -- yet traces the same fan_out span with one shard child, so
  // the ledger reads it exactly like a wider fleet.
  FederatedQueryEngine::Options options;
  options.planner.auto_tag_selection = false;
  FederatedQueryEngine engine({Shard{0, source_, nullptr}}, options);

  auto analysis = engine.ExplainAnalyze(
      "SELECT obj_id, r FROM photo WHERE CIRCLE('GAL', 30, 70, 8)");
  ASSERT_TRUE(analysis.ok());
  ASSERT_EQ(analysis->shards.size(), 1u);
  const FederatedQueryEngine::ShardAnalysis& shard = analysis->shards[0];
  EXPECT_EQ(shard.predicted_bytes, shard.actual_bytes);
  EXPECT_EQ(shard.containers_predicted, shard.containers_scanned);
  EXPECT_GT(shard.actual_bytes, 0u);
  EXPECT_EQ(shard.actual_bytes, analysis->exec.bytes_touched);
  EXPECT_EQ(shard.rows, analysis->exec.rows_emitted);
  EXPECT_NE(analysis->report.find("federation: 1 live shards"),
            std::string::npos);
  EXPECT_NE(analysis->trace_json.find("\"shard\""), std::string::npos);
  EXPECT_EQ(analysis->trace_json.find("\"merge\""), std::string::npos);
}

TEST_F(ExplainAnalyzeTest, MyDbReadTracesOneShardSpan) {
  archive::MyDb mydb;
  std::vector<catalog::PhotoObj> bright;
  source_->ForEachObject([&bright](const catalog::PhotoObj& o) {
    if (o.mag[catalog::kR] < 20.0f) bright.push_back(o);
  });
  ASSERT_TRUE(mydb.Put("alice", "bright", std::move(bright)).ok());
  auto shards = sharded_->LiveShards();
  ASSERT_TRUE(shards.ok());
  FederatedQueryEngine engine(*shards);
  const std::string sql = "SELECT obj_id, r FROM mydb.bright WHERE r < 19";

  // The personal store runs the single-store shape under the fleet's
  // span vocabulary: one fan_out, one shard, no merge.
  QueryTrace trace;
  ExecContext ctx;
  ctx.mydb = mydb.ResolverFor("alice");
  ctx.trace = &trace;
  auto stats = engine.ExecuteStreaming(
      sql, [](const RowBatch&) { return true; }, ctx);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->rows_emitted, 0u);
  EXPECT_EQ(trace.Find("fan_out").size(), 1u);
  EXPECT_TRUE(trace.Find("merge").empty());
  EXPECT_TRUE(trace.Find("local_scan").empty());
  const std::vector<TraceSpan> shard_spans = trace.Find("shard");
  ASSERT_EQ(shard_spans.size(), 1u);
  EXPECT_EQ(shard_spans[0].Num("rows"),
            static_cast<double>(stats->rows_emitted));
  EXPECT_EQ(shard_spans[0].Num("bytes"),
            static_cast<double>(stats->bytes_touched));
  EXPECT_GT(shard_spans[0].Num("containers"), 0.0);

  // A personal store has no fleet prediction to hold the run against.
  ctx.trace = nullptr;
  auto analysis = engine.ExplainAnalyze(sql, ctx);
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
  EXPECT_TRUE(analysis->shards.empty());
  EXPECT_EQ(analysis->exec.rows_emitted, stats->rows_emitted);
  EXPECT_NE(analysis->report.find("personal store: mydb"),
            std::string::npos);
}

TEST_F(ExplainAnalyzeTest, SpatialTagScanOnlyOverestimates) {
  auto shards = sharded_->LiveShards();
  ASSERT_TRUE(shards.ok());
  FederatedQueryEngine engine(*shards);

  auto analysis = engine.ExplainAnalyze(
      "SELECT obj_id, r FROM photo WHERE CIRCLE('GAL', 30, 70, 8) "
      "AND r < 21");
  ASSERT_TRUE(analysis.ok());
  // The density map prices whole containers off the HTM cover before
  // the scan filters rows: it may never undercount what the pruned
  // scan then touches.
  for (const auto& shard : analysis->shards) {
    EXPECT_GE(shard.predicted_bytes, shard.actual_bytes)
        << "shard " << shard.server;
    EXPECT_EQ(shard.containers_predicted, shard.containers_scanned)
        << "shard " << shard.server;
  }
}

TEST_F(ExplainAnalyzeTest, LeadingExplainAnalyzeKeywordsAreStripped) {
  auto shards = sharded_->LiveShards();
  ASSERT_TRUE(shards.ok());
  FederatedQueryEngine engine(*shards);
  auto analysis = engine.ExplainAnalyze(
      "EXPLAIN ANALYZE SELECT COUNT(*) FROM photo WHERE r < 20");
  ASSERT_TRUE(analysis.ok());
  EXPECT_EQ(analysis->exec.rows_emitted, 1u);
}

TEST_F(ExplainAnalyzeTest, RefusesInto) {
  auto shards = sharded_->LiveShards();
  ASSERT_TRUE(shards.ok());
  FederatedQueryEngine engine(*shards);
  auto analysis = engine.ExplainAnalyze(
      "SELECT * INTO mydb.t FROM photo WHERE r < 19");
  EXPECT_FALSE(analysis.ok());
}

TEST_F(ExplainAnalyzeTest, BypassesResultCache) {
  auto shards = sharded_->LiveShards();
  ASSERT_TRUE(shards.ok());
  FederatedQueryEngine::Options options;
  options.result_cache_bytes = 8u << 20;
  FederatedQueryEngine engine(*shards, options);

  const std::string sql = "SELECT obj_id, r FROM photo WHERE r < 20";
  // Warm the cache through the normal path...
  auto first =
      engine.ExecuteStreaming(sql, [](const RowBatch&) { return true; });
  ASSERT_TRUE(first.ok());
  // ...then ANALYZE must still scan the fleet (its per-shard ledger
  // would be empty on a cache answer).
  auto analysis = engine.ExplainAnalyze(sql);
  ASSERT_TRUE(analysis.ok());
  EXPECT_FALSE(analysis->exec.cache_hit);
  EXPECT_FALSE(analysis->exec.cache_containment);
  EXPECT_GT(analysis->exec.containers_scanned, 0u);
  ASSERT_FALSE(analysis->shards.empty());
}

}  // namespace
}  // namespace sdss::query
