#include "answer.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace e2e {
namespace {

uint64_t RowHash(const sdss::query::ResultRow& row, Compare mode) {
  if (mode == Compare::kPairs) {
    const uint64_t lo = std::min(row.obj_id, row.obj_id_b);
    const uint64_t hi = std::max(row.obj_id, row.obj_id_b);
    return Mix64(Mix64(lo) ^ hi);
  }
  uint64_t h = Mix64(Mix64(row.obj_id) ^ row.obj_id_b);
  for (double v : row.values) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    h = Mix64(h ^ bits);
  }
  return h;
}

}  // namespace

void Answer::Add(const sdss::query::RowBatch& batch, Compare mode) {
  for (const sdss::query::ResultRow& row : batch) {
    if (rows == 0 && !row.values.empty()) first_value = row.values[0];
    const uint64_t h = RowHash(row, mode);
    bag += h;
    seq = Mix64(seq ^ h);
    ++rows;
  }
}

bool Matches(Compare mode, const Answer& want, const Answer& got,
             uint64_t got_rows) {
  switch (mode) {
    case Compare::kBag:
    case Compare::kPairs:
      return want.rows == got.rows && want.bag == got.bag;
    case Compare::kOrdered:
      return want.rows == got.rows && want.seq == got.seq;
    case Compare::kAvg: {
      if (want.rows != 1 || got.rows != 1) return false;
      const double scale = std::max(std::abs(want.first_value), 1e-300);
      return std::abs(want.first_value - got.first_value) / scale <= 1e-9;
    }
    case Compare::kIntoCount:
      return want.rows == got_rows;
  }
  return false;
}

Oracle::Oracle(const sdss::catalog::ObjectStore* store)
    : engine_({sdss::query::Shard{0, store, nullptr}}) {}

sdss::Result<Answer> Oracle::Expected(const Statement& s) {
  Answer answer;
  auto stats = engine_.ExecuteStreaming(
      s.oracle_sql, [&](const sdss::query::RowBatch& batch) {
        answer.Add(batch, s.compare);
        return true;
      });
  if (!stats.ok()) return stats.status();
  return answer;
}

sdss::Result<sdss::query::QueryResult> Oracle::Rows(const std::string& sql) {
  return engine_.Execute(sql);
}

}  // namespace e2e
