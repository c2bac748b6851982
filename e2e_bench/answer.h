// Answer digests and the one-shard oracle.
//
// A served answer is folded into a fixed-size digest as its rows
// stream in, so every statement of the timed window keeps its answer
// at the cost of a few words. The oracle is a one-shard
// FederatedQueryEngine over the same mapped store with the result cache
// off: no fan-out, no merge, no cache -- the simplest path to the same
// answer.

#ifndef E2E_BENCH_ANSWER_H_
#define E2E_BENCH_ANSWER_H_

#include <cstdint>
#include <string>

#include "catalog/object_store.h"
#include "core/status.h"
#include "query/federated_engine.h"
#include "query/qet.h"
#include "workload.h"

namespace e2e {

/// Order-insensitive and order-sensitive fingerprints of a row stream.
struct Answer {
  uint64_t rows = 0;
  uint64_t bag = 0;  ///< Sum of row hashes: equal multisets, equal bags.
  uint64_t seq = 0;  ///< Position-dependent fold: equal sequences.
  double first_value = 0.0;  ///< values[0] of the first row (aggregates).

  /// Folds one batch in. Pair rows hash by their unordered id pair.
  void Add(const sdss::query::RowBatch& batch, Compare mode);
};

/// True when `got` matches the oracle's `want` under `mode`. For
/// kIntoCount, `got_rows` is the DONE row count of the INTO.
bool Matches(Compare mode, const Answer& want, const Answer& got,
             uint64_t got_rows);

/// The reference engine.
class Oracle {
 public:
  explicit Oracle(const sdss::catalog::ObjectStore* store);

  /// The expected answer to `s` (runs s.oracle_sql).
  sdss::Result<Answer> Expected(const Statement& s);

  /// The rows of s.oracle_sql, materialized (used to replay MyDb::Put).
  sdss::Result<sdss::query::QueryResult> Rows(const std::string& sql);

 private:
  sdss::query::FederatedQueryEngine engine_;
};

}  // namespace e2e

#endif  // E2E_BENCH_ANSWER_H_
