// Stage clocks of the DONE breakdown, pinned for every execution shape:
// plain, ORDER/LIMIT, partial aggregate, LIMIT-capped aggregate, pair
// join, join aggregate, branch-limited set query and mydb read, on a
// one-shard and a three-shard fleet, each run cold and -- where the
// result cache accepts the shape -- again as a cache answer. Every stage
// lies in [0, seconds_total]; the sequential stages (cache probe, ghost
// harvest, fan-out) fit inside the total; a run that emitted rows timed
// its sink; and a run the cache did not answer timed its fan-out.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "archive/mydb.h"
#include "archive/sharded_store.h"
#include "catalog/sky_generator.h"
#include "query/federated_engine.h"

namespace sdss::query {
namespace {

struct Shape {
  const char* name;
  std::string sql;
  bool cacheable = false;  ///< A second run is a result-cache hit.
};

std::vector<Shape> Shapes() {
  const std::string lens =
      "FROM photo AS a JOIN photo AS b WITHIN 60 ARCSEC "
      "WHERE a.g - a.r - b.g + b.r < 0.05 AND b.g - b.r - a.g + a.r < 0.05";
  return {
      {"plain", "SELECT obj_id, r FROM photo WHERE r < 20.5", true},
      {"order_limit",
       "SELECT obj_id, r FROM photo WHERE r < 21 ORDER BY r LIMIT 50", true},
      {"partial_aggregate",
       "SELECT AVG(g) FROM photo WHERE class = 'GALAXY'", true},
      {"limit_capped_aggregate",
       "SELECT COUNT(*) FROM photo WHERE r < 21 LIMIT 50"},
      {"join", "SELECT a.obj_id, b.obj_id, sep " + lens},
      {"join_aggregate", "SELECT COUNT(*) " + lens},
      {"branch_limit_set",
       "SELECT obj_id, r FROM photo WHERE r < 21 ORDER BY r LIMIT 30 "
       "UNION SELECT obj_id, r FROM photo WHERE class = 'QSO'",
       true},
      {"mydb", "SELECT obj_id, r FROM mydb.bright WHERE r < 19"},
  };
}

void ExpectStageClocksConsistent(const ExecStats& s) {
  const double total = s.seconds_total;
  EXPECT_GT(total, 0.0);
  EXPECT_GE(s.seconds_plan, 0.0);
  for (double stage : {s.seconds_cache_probe, s.seconds_ghost_harvest,
                       s.seconds_fan_out, s.seconds_stream_out,
                       s.seconds_to_first_row}) {
    EXPECT_GE(stage, 0.0);
    EXPECT_LE(stage, total);
  }
  // The three stages run one after another inside the total; the slack
  // absorbs rounding of the separately converted durations.
  EXPECT_LE(s.seconds_cache_probe + s.seconds_ghost_harvest +
                s.seconds_fan_out,
            total + 1e-9);
  if (s.rows_emitted > 0) {
    EXPECT_GT(s.seconds_stream_out, 0.0);
  }
  if (!s.cache_hit && !s.cache_containment) {
    EXPECT_GT(s.seconds_fan_out, 0.0);
  }
}

class StageClockTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Tight clusters give the joins plenty of in-radius pairs.
    catalog::SkyModel m;
    m.seed = 4401;
    m.num_galaxies = 1600;
    m.num_stars = 800;
    m.num_quasars = 120;
    m.num_clusters = 10;
    m.cluster_fraction = 0.6;
    m.cluster_radius_deg = 0.05;
    store_ = new catalog::ObjectStore();
    ASSERT_TRUE(store_->BulkLoad(catalog::SkyGenerator(m).Generate()).ok());
    mydb_ = new archive::MyDb();
    std::vector<catalog::PhotoObj> bright;
    store_->ForEachObject([&bright](const catalog::PhotoObj& o) {
      if (o.mag[catalog::kR] < 20.5f) bright.push_back(o);
    });
    ASSERT_TRUE(mydb_->Put("miner", "bright", std::move(bright)).ok());
  }
  static void TearDownTestSuite() {
    delete mydb_;
    delete store_;
    mydb_ = nullptr;
    store_ = nullptr;
  }

  static void CheckEveryShape(size_t servers) {
    archive::ReplicationOptions repl;
    repl.num_servers = servers;
    repl.base_replicas = 1;
    archive::ShardedStore sharded(*store_, repl);
    auto shards = sharded.LiveShards();
    ASSERT_TRUE(shards.ok());
    FederatedQueryEngine::Options options;
    options.result_cache_bytes = 8u << 20;
    FederatedQueryEngine engine(*shards, options);
    ExecContext ctx;
    ctx.mydb = mydb_->ResolverFor("miner");

    for (const Shape& shape : Shapes()) {
      for (bool warm : {false, true}) {
        if (warm && !shape.cacheable) continue;
        SCOPED_TRACE(std::string(shape.name) + " servers=" +
                     std::to_string(servers) + (warm ? " hit" : " miss"));
        uint64_t rows = 0;
        auto stats = engine.ExecuteStreaming(
            shape.sql,
            [&rows](const RowBatch& batch) {
              rows += batch.size();
              return true;
            },
            ctx);
        ASSERT_TRUE(stats.ok()) << stats.status().ToString();
        EXPECT_EQ(stats->rows_emitted, rows);
        EXPECT_GT(rows, 0u);
        EXPECT_EQ(stats->cache_hit, warm);
        ExpectStageClocksConsistent(*stats);
      }
    }
  }

  static catalog::ObjectStore* store_;
  static archive::MyDb* mydb_;
};

catalog::ObjectStore* StageClockTest::store_ = nullptr;
archive::MyDb* StageClockTest::mydb_ = nullptr;

TEST_F(StageClockTest, OneShardFleet) { CheckEveryShape(1); }

TEST_F(StageClockTest, ThreeShardFleet) { CheckEveryShape(3); }

TEST_F(StageClockTest, ContainmentAnswerTimesItsSink) {
  FederatedQueryEngine::Options options;
  options.result_cache_bytes = 8u << 20;
  FederatedQueryEngine engine({Shard{0, store_, nullptr}}, options);
  auto wide = engine.Execute(
      "SELECT obj_id, r FROM photo WHERE CIRCLE('GAL', 30, 70, 10)");
  ASSERT_TRUE(wide.ok());
  auto sub = engine.Execute(
      "SELECT obj_id, r FROM photo WHERE CIRCLE('GAL', 30, 70, 5)");
  ASSERT_TRUE(sub.ok());
  EXPECT_TRUE(sub->exec.cache_containment);
  EXPECT_GT(sub->exec.rows_emitted, 0u);
  ExpectStageClocksConsistent(sub->exec);
}

}  // namespace
}  // namespace sdss::query
