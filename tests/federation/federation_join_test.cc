// The distributed neighbor join: for randomized skies and shard counts
// 1..8, the federated pair query must return exactly the single-store
// result (itself validated against brute force), with every cross-shard
// pair recovered through the boundary ghost exchange -- including with
// one server marked down -- and Explain must surface the kPairJoin plan
// plus per-shard scan/ship predictions.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "archive/sharded_store.h"
#include "core/angle.h"
#include "federation/federation_test_util.h"
#include "query/federated_engine.h"

namespace sdss::federation_test {
namespace {

using archive::ReplicationOptions;
using archive::ShardedStore;
using catalog::ObjectStore;
using catalog::PhotoObj;
using query::FederatedQueryEngine;
using query::QueryResult;

// A clustered sky: tight clusters make plenty of in-radius pairs, and
// clusters landing near container boundaries exercise the ghost
// exchange.
ObjectStore MakeJoinSky(uint64_t seed) {
  catalog::SkyModel m;
  m.seed = seed;
  m.num_galaxies = 1600;
  m.num_stars = 500;
  m.num_quasars = 150;
  m.num_clusters = 10;
  m.cluster_fraction = 0.6;
  m.cluster_radius_deg = 0.05;
  ObjectStore store;
  EXPECT_TRUE(store.BulkLoad(catalog::SkyGenerator(m).Generate()).ok());
  return store;
}

// The C9 lens-candidate query: pairs within the radius with
// near-identical g-r color, reported with both ids and the separation.
std::string LensSql(double sep_arcsec) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "SELECT a.obj_id, b.obj_id, sep FROM photo AS a "
                "JOIN photo AS b WITHIN %g ARCSEC "
                "WHERE a.g - a.r - b.g + b.r < 0.05 AND "
                "b.g - b.r - a.g + a.r < 0.05",
                sep_arcsec);
  return buf;
}

using PairSet = std::set<std::pair<uint64_t, uint64_t>>;

PairSet ResultPairs(const QueryResult& r) {
  PairSet pairs;
  for (const auto& row : r.rows) {
    uint64_t a = static_cast<uint64_t>(row.values[0]);
    uint64_t b = static_cast<uint64_t>(row.values[1]);
    EXPECT_TRUE(pairs.emplace(std::min(a, b), std::max(a, b)).second)
        << "duplicate pair " << a << ", " << b;
  }
  return pairs;
}

PairSet BruteLensPairs(const ObjectStore& store, double sep_arcsec) {
  std::vector<const PhotoObj*> objs;
  store.ForEachObject([&objs](const PhotoObj& o) { objs.push_back(&o); });
  double cos_sep = std::cos(ArcsecToRad(sep_arcsec));
  PairSet pairs;
  for (size_t i = 0; i < objs.size(); ++i) {
    for (size_t j = i + 1; j < objs.size(); ++j) {
      const PhotoObj& a = *objs[i];
      const PhotoObj& b = *objs[j];
      if (a.pos.Dot(b.pos) < cos_sep) continue;
      double ag = a.mag[1], ar = a.mag[2], bg = b.mag[1], br = b.mag[2];
      if (((ag - ar) - bg) + br >= 0.05) continue;
      if (((bg - br) - ag) + ar >= 0.05) continue;
      pairs.emplace(std::min(a.obj_id, b.obj_id),
                    std::max(a.obj_id, b.obj_id));
    }
  }
  return pairs;
}

std::vector<query::Shard> FleetShards(ShardedStore* sharded,
                                      bool kill_server, size_t victim) {
  if (kill_server) {
    EXPECT_TRUE(sharded->MarkServerDown(victim).ok());
  }
  auto shards = sharded->LiveShards();
  EXPECT_TRUE(shards.ok()) << shards.status().ToString();
  return shards.ok() ? *shards : std::vector<query::Shard>{};
}

void RunJoinEquivalenceSweep(uint64_t seed, size_t servers,
                             size_t replicas, bool kill_server) {
  SCOPED_TRACE("seed " + std::to_string(seed) + " servers " +
               std::to_string(servers) +
               (kill_server ? " one down" : ""));
  ObjectStore store = MakeJoinSky(seed);
  FederatedQueryEngine single = SingleStore(&store);
  ShardedStore sharded(store, {servers, replicas});
  FederatedQueryEngine fed(
      FleetShards(&sharded, kill_server, servers / 2));

  // The lens query: fed == single == brute force.
  const double sep = 120.0;
  auto expect = single.Execute(LensSql(sep));
  ASSERT_TRUE(expect.ok()) << expect.status().ToString();
  auto got = fed.Execute(LensSql(sep));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  PairSet brute = BruteLensPairs(store, sep);
  EXPECT_GT(brute.size(), 0u) << "sky produced no lens pairs";
  EXPECT_EQ(ResultPairs(*expect), brute);
  EXPECT_EQ(ResultPairs(*got), brute);
  // Pair rows are emitted exactly once fleet-wide (no dedupe losses, no
  // double counting).
  EXPECT_EQ(got->exec.objects_matched, expect->exec.objects_matched);
  if (fed.num_shards() > 1) {
    EXPECT_GT(got->exec.bytes_shipped, 0u)
        << "multi-shard join moved no boundary ghosts";
  } else {
    EXPECT_EQ(got->exec.bytes_shipped, 0u);
  }

  // Asymmetric roles (quasar + faint blue galaxy), compared as row
  // multisets against the single store.
  const std::string asym =
      "SELECT a.obj_id, b.obj_id, a.r, b.r FROM photo AS a "
      "JOIN photo AS b WITHIN 60 ARCSEC "
      "WHERE a.class = 'QSO' AND a.r < 22 AND "
      "b.class = 'GALAXY' AND b.g - b.r < 0.8";
  auto s_asym = single.Execute(asym);
  ASSERT_TRUE(s_asym.ok()) << s_asym.status().ToString();
  auto f_asym = fed.Execute(asym);
  ASSERT_TRUE(f_asym.ok()) << f_asym.status().ToString();
  ExpectEquivalent(*s_asym, *f_asym, CompareMode::kMultiset, asym);
  EXPECT_EQ(ResultPairs(*s_asym), ResultPairs(*f_asym));

  // Globally ordered and capped: exact row sequence.
  const std::string ordered =
      "SELECT a.obj_id, b.obj_id, sep FROM photo AS a JOIN photo AS b "
      "WITHIN 90 ARCSEC ORDER BY sep LIMIT 25";
  auto s_ord = single.Execute(ordered);
  ASSERT_TRUE(s_ord.ok()) << s_ord.status().ToString();
  auto f_ord = fed.Execute(ordered);
  ASSERT_TRUE(f_ord.ok()) << f_ord.status().ToString();
  ASSERT_EQ(s_ord->rows.size(), f_ord->rows.size());
  for (size_t i = 0; i < s_ord->rows.size(); ++i) {
    EXPECT_EQ(s_ord->rows[i].obj_id, f_ord->rows[i].obj_id) << "row " << i;
    EXPECT_EQ(s_ord->rows[i].obj_id_b, f_ord->rows[i].obj_id_b)
        << "row " << i;
    EXPECT_EQ(s_ord->rows[i].values, f_ord->rows[i].values) << "row " << i;
  }

  // Spatially pruned join: identical answers, and the fleet touches
  // exactly the single store's (pruned) container set.
  const std::string pruned =
      "SELECT a.obj_id, b.obj_id FROM photo AS a JOIN photo AS b "
      "WITHIN 90 ARCSEC WHERE CIRCLE('GAL', 30, 70, 25)";
  auto s_pr = single.Execute(pruned);
  ASSERT_TRUE(s_pr.ok()) << s_pr.status().ToString();
  auto f_pr = fed.Execute(pruned);
  ASSERT_TRUE(f_pr.ok()) << f_pr.status().ToString();
  ExpectEquivalent(*s_pr, *f_pr, CompareMode::kMultiset, pruned);
  EXPECT_EQ(s_pr->exec.containers_scanned, f_pr->exec.containers_scanned);
  EXPECT_LT(s_pr->exec.containers_scanned, store.container_count())
      << "spatial conjunct did not prune the join";

  // COUNT(*) over the join folds at the federation level.
  const std::string count_sql =
      "SELECT COUNT(*) FROM photo AS a JOIN photo AS b WITHIN 45 ARCSEC";
  auto s_cnt = single.Execute(count_sql);
  ASSERT_TRUE(s_cnt.ok()) << s_cnt.status().ToString();
  auto f_cnt = fed.Execute(count_sql);
  ASSERT_TRUE(f_cnt.ok()) << f_cnt.status().ToString();
  ExpectEquivalent(*s_cnt, *f_cnt, CompareMode::kAggregate, count_sql);
}

TEST(FederationJoinTest, TwoShardsMatchBruteForce) {
  RunJoinEquivalenceSweep(901, 2, 2, false);
}

TEST(FederationJoinTest, ThreeShardsMatchBruteForce) {
  RunJoinEquivalenceSweep(902, 3, 2, false);
}

TEST(FederationJoinTest, FiveShardsMatchBruteForce) {
  RunJoinEquivalenceSweep(903, 5, 2, false);
}

TEST(FederationJoinTest, EightShardsMatchBruteForce) {
  RunJoinEquivalenceSweep(904, 8, 2, false);
}

TEST(FederationJoinTest, SingleShardDegeneratesToSingleStore) {
  RunJoinEquivalenceSweep(905, 1, 1, false);
}

TEST(FederationJoinTest, OneServerDownStillExact) {
  RunJoinEquivalenceSweep(906, 5, 2, true);
}

TEST(FederationJoinTest, ExplainShowsPairJoinAndShipPredictions) {
  ObjectStore store = MakeJoinSky(907);
  ShardedStore sharded(store, {4, 2});
  auto shards = sharded.LiveShards();
  ASSERT_TRUE(shards.ok());
  FederatedQueryEngine fed(*shards);

  auto explain = fed.Explain(LensSql(120.0));
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_NE(explain->find("PAIR_JOIN"), std::string::npos) << *explain;
  EXPECT_NE(explain->find("buckets level"), std::string::npos) << *explain;
  EXPECT_NE(explain->find("federation: 4 live shards"), std::string::npos)
      << *explain;
  EXPECT_NE(explain->find("shard 0:"), std::string::npos) << *explain;
  EXPECT_NE(explain->find("ghost exchange:"), std::string::npos)
      << *explain;
  EXPECT_NE(explain->find("bytes shipped"), std::string::npos) << *explain;

  // Per-shard predictions carry the shipped-bytes estimate for joins.
  auto parsed = query::Parse(LensSql(120.0));
  ASSERT_TRUE(parsed.ok());
  auto plan = query::BuildPlan(*parsed, *shards->front().store);
  ASSERT_TRUE(plan.ok());
  auto preds = query::PredictShards(*shards, *plan);
  ASSERT_EQ(preds.size(), shards->size());
  for (const auto& p : preds) {
    EXPECT_GT(p.bytes_shipped, 0u) << "shard " << p.server;
    EXPECT_LE(p.bytes_shipped, p.bytes_to_scan) << "shard " << p.server;
  }
}

TEST(FederationJoinTest, StreamingJoinCanCancel) {
  ObjectStore store = MakeJoinSky(908);
  ShardedStore sharded(store, {3, 2});
  auto shards = sharded.LiveShards();
  ASSERT_TRUE(shards.ok());
  FederatedQueryEngine fed(*shards);

  uint64_t seen = 0;
  auto stats = fed.ExecuteStreaming(
      "SELECT a.obj_id, b.obj_id FROM photo AS a JOIN photo AS b "
      "WITHIN 120 ARCSEC",
      [&seen](const query::RowBatch& batch) {
        seen += batch.size();
        return seen < 64;  // Cancel mid-stream.
      });
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats->cancelled_early);
  EXPECT_GE(seen, 64u);
}

}  // namespace
}  // namespace sdss::federation_test
