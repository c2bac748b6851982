// Shared fixtures for the federation suite: canonical skies, the mixed
// query list every test draws from, and result-equivalence checks. The
// ground truth the fleet must match is a one-shard FederatedQueryEngine
// over the unsharded store (SingleStore below), which runs every plan
// whole on one executor: no gather, no merge, no partial aggregates.

#ifndef SDSS_TESTS_FEDERATION_FEDERATION_TEST_UTIL_H_
#define SDSS_TESTS_FEDERATION_FEDERATION_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "catalog/object_store.h"
#include "catalog/sky_generator.h"
#include "query/federated_engine.h"

namespace sdss::federation_test {

inline catalog::ObjectStore MakeSky(uint64_t seed, uint64_t galaxies,
                                    uint64_t stars, uint64_t quasars) {
  catalog::SkyModel m;
  m.seed = seed;
  m.num_galaxies = galaxies;
  m.num_stars = stars;
  m.num_quasars = quasars;
  catalog::ObjectStore store;
  EXPECT_TRUE(
      store.BulkLoad(catalog::SkyGenerator(m).Generate()).ok());
  return store;
}

/// The ground-truth engine: a one-shard fleet over `store`.
inline query::FederatedQueryEngine SingleStore(
    const catalog::ObjectStore* store) {
  return query::FederatedQueryEngine({query::Shard{0, store, nullptr}});
}

/// How a query's federated result is compared against single-store.
enum class CompareMode {
  kMultiset,    ///< Row bags equal (order-free).
  kOrdered,     ///< Exact row sequence (deterministic ORDER BY).
  kLimitCount,  ///< LIMIT without ORDER: row counts equal.
  kAggregate,   ///< Aggregate values equal to 1e-9 relative.
};

struct TestQuery {
  std::string sql;
  CompareMode mode = CompareMode::kMultiset;
};

/// The mixed query list: spans plain scans, tag-store selection, spatial
/// pruning, ORDER/LIMIT merging, every aggregate (decomposed partials
/// and the LIMIT-capped fold), set operations (shard-local and the
/// branch-limit federation-level path), and NOT predicates.
inline std::vector<TestQuery> MixedQueries() {
  using M = CompareMode;
  return {
      {"SELECT obj_id, r FROM photo WHERE r < 20.5", M::kMultiset},
      {"SELECT * FROM tag WHERE r < 19", M::kMultiset},
      {"SELECT obj_id, g, r FROM photo WHERE g - r < 0.8 AND r < 21",
       M::kMultiset},
      {"SELECT obj_id FROM photo WHERE class = 'QSO'", M::kMultiset},
      {"SELECT obj_id, r FROM photo WHERE CIRCLE('GAL', 30, 70, 8)",
       M::kMultiset},
      {"SELECT obj_id, r FROM photo WHERE CIRCLE('GAL', 120, 55, 10) "
       "AND r < 21.5",
       M::kMultiset},
      {"SELECT obj_id FROM photo WHERE RECT(170, 210, 20, 50) AND "
       "class = 'GALAXY'",
       M::kMultiset},
      {"SELECT obj_id, r FROM photo WHERE BAND('GAL', 45, 65) AND r < 22",
       M::kMultiset},
      {"SELECT obj_id, u, z FROM photo WHERE u - g > 0.4 AND "
       "NOT (class = 'STAR')",
       M::kMultiset},
      {"SELECT obj_id, r FROM photo WHERE r < 21 ORDER BY r LIMIT 50",
       M::kOrdered},
      {"SELECT obj_id, r FROM photo WHERE r < 22 ORDER BY r DESC LIMIT 25",
       M::kOrdered},
      {"SELECT obj_id, g FROM photo WHERE class = 'STAR' AND g < 21 "
       "ORDER BY g",
       M::kOrdered},
      {"SELECT obj_id, r FROM tag WHERE r < 20 ORDER BY r LIMIT 40",
       M::kOrdered},
      {"SELECT obj_id, dec FROM photo WHERE CIRCLE('GAL', 30, 70, 10) "
       "ORDER BY dec DESC LIMIT 30",
       M::kOrdered},
      {"SELECT obj_id FROM photo WHERE r < 21 LIMIT 100", M::kLimitCount},
      {"SELECT obj_id FROM tag WHERE g < 22 LIMIT 64", M::kLimitCount},
      {"SELECT COUNT(*) FROM photo", M::kAggregate},
      {"SELECT COUNT(*) FROM photo WHERE r < 21", M::kAggregate},
      {"SELECT SUM(r) FROM photo WHERE r < 22", M::kAggregate},
      {"SELECT AVG(g) FROM photo WHERE class = 'GALAXY'", M::kAggregate},
      {"SELECT MIN(r) FROM photo", M::kAggregate},
      {"SELECT MAX(z) FROM photo WHERE class = 'STAR'", M::kAggregate},
      {"SELECT COUNT(*) FROM photo WHERE CIRCLE('GAL', 0, 60, 12)",
       M::kAggregate},
      {"SELECT AVG(r) FROM tag WHERE g - r < 1.0", M::kAggregate},
      {"SELECT MIN(g) FROM photo WHERE CIRCLE('GAL', 300, 50, 15)",
       M::kAggregate},
      {"SELECT COUNT(*) FROM photo WHERE r < 21 LIMIT 50", M::kAggregate},
      {"SELECT obj_id, r FROM photo WHERE class = 'QSO' UNION "
       "SELECT obj_id, r FROM photo WHERE r < 18.5",
       M::kMultiset},
      {"SELECT obj_id, r FROM photo WHERE r < 21 INTERSECT "
       "SELECT obj_id, r FROM photo WHERE g - r < 0.6",
       M::kMultiset},
      {"SELECT obj_id, r FROM photo WHERE r < 20 EXCEPT "
       "SELECT obj_id, r FROM photo WHERE class = 'STAR'",
       M::kMultiset},
      {"SELECT obj_id, r FROM photo WHERE CIRCLE('GAL', 40, 70, 6) UNION "
       "SELECT obj_id, r FROM photo WHERE CIRCLE('GAL', 220, 70, 6)",
       M::kMultiset},
      {"SELECT obj_id, r FROM photo WHERE r < 21 ORDER BY r LIMIT 30 "
       "UNION SELECT obj_id, r FROM photo WHERE class = 'QSO'",
       M::kMultiset},
      {"SELECT obj_id, r FROM photo WHERE r < 22 ORDER BY r LIMIT 200 "
       "INTERSECT SELECT obj_id, r FROM photo WHERE class = 'GALAXY'",
       M::kMultiset},
      {"SELECT SUM(r) FROM photo WHERE r < 21 EXCEPT "
       "SELECT r FROM photo WHERE class = 'STAR'",
       M::kAggregate},
      // Aggregate over a set query with a branch LIMIT: the branch must
      // run as a plain (globally ordered+limited) select -- no per-shard
      // or per-branch aggregate node -- before the outer fold.
      {"SELECT SUM(r) FROM photo WHERE r < 21 ORDER BY r LIMIT 10 "
       "EXCEPT SELECT r FROM photo WHERE class = 'STAR'",
       M::kAggregate},
      // Gather placements under the coordinator's set nodes: a limited
      // right branch, EXCEPT with a limited left branch, an aggregate
      // over a branch-limited set, and a three-branch chain limited in
      // the middle.
      {"SELECT obj_id, r FROM photo WHERE class = 'QSO' UNION "
       "SELECT obj_id, r FROM photo WHERE r < 18 ORDER BY r LIMIT 30",
       M::kMultiset},
      {"SELECT obj_id, r FROM photo WHERE r < 21 ORDER BY r LIMIT 30 "
       "EXCEPT SELECT obj_id, r FROM photo WHERE class = 'STAR'",
       M::kMultiset},
      {"SELECT SUM(r) FROM photo WHERE r < 22 ORDER BY r LIMIT 40 "
       "UNION SELECT r FROM photo WHERE class = 'QSO'",
       M::kAggregate},
      {"SELECT obj_id, r FROM photo WHERE class = 'QSO' UNION "
       "SELECT obj_id, r FROM photo WHERE r < 21 ORDER BY r DESC LIMIT 25 "
       "EXCEPT SELECT obj_id, r FROM photo WHERE class = 'STAR'",
       M::kMultiset},
  };
}

using NormalizedRows = std::vector<std::pair<uint64_t, std::vector<double>>>;

inline NormalizedRows Normalize(const query::QueryResult& r) {
  NormalizedRows rows;
  rows.reserve(r.rows.size());
  for (const auto& row : r.rows) rows.emplace_back(row.obj_id, row.values);
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Asserts the federated result matches the single-store ground truth
/// under `mode`. `context` names the failing query in gtest output.
inline void ExpectEquivalent(const query::QueryResult& single,
                             const query::QueryResult& fed,
                             CompareMode mode, const std::string& context) {
  SCOPED_TRACE(context);
  switch (mode) {
    case CompareMode::kMultiset:
      EXPECT_EQ(Normalize(single), Normalize(fed));
      break;
    case CompareMode::kOrdered: {
      ASSERT_EQ(single.rows.size(), fed.rows.size());
      for (size_t i = 0; i < single.rows.size(); ++i) {
        EXPECT_EQ(single.rows[i].obj_id, fed.rows[i].obj_id) << "row " << i;
        EXPECT_EQ(single.rows[i].values, fed.rows[i].values) << "row " << i;
      }
      break;
    }
    case CompareMode::kLimitCount:
      EXPECT_EQ(single.rows.size(), fed.rows.size());
      break;
    case CompareMode::kAggregate: {
      EXPECT_TRUE(single.is_aggregate);
      EXPECT_TRUE(fed.is_aggregate);
      double tol =
          1e-9 * std::max(1.0, std::fabs(single.aggregate_value));
      EXPECT_NEAR(single.aggregate_value, fed.aggregate_value, tol);
      break;
    }
  }
}

}  // namespace sdss::federation_test

#endif  // SDSS_TESTS_FEDERATION_FEDERATION_TEST_UTIL_H_
