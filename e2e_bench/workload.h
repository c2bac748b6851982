// The four served-archive traffic mixes, as statement schedules.
//
// Everything here is a pure function of (workload, seed): cone centres,
// Zipf draws, colour cuts and arrival times all come from the seed, and
// the server under test only ever sees the SQL text. A schedule is one
// statement list per connection (at most four); each connection is a
// distinct user.

#ifndef E2E_BENCH_WORKLOAD_H_
#define E2E_BENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

/// splitmix64: the benchmark's one mixer, for seeding generator streams
/// and for hashing answers.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

enum class Workload { kInteractive, kHotspot, kMining, kMyDb };

/// Parses a workload name ("interactive", "hotspot", "mining", "mydb").
bool ParseWorkload(std::string_view name, Workload* out);
const char* WorkloadName(Workload w);

/// The latency class a statement is reported under.
enum class Class : uint8_t { kQuick, kSweep, kInto, kReread };
inline constexpr int kNumClasses = 4;
const char* ClassName(Class c);

/// How an answer is compared with the oracle's.
enum class Compare : uint8_t {
  kBag,        ///< Rows as a multiset.
  kOrdered,    ///< Rows as a sequence (ORDER BY).
  kPairs,      ///< Pair rows by unordered (obj_id, obj_id_b) key.
  kAvg,        ///< One aggregate value, relative tolerance 1e-9.
  kIntoCount,  ///< DONE row count against the oracle's row count.
};

/// A cone in galactic coordinates (degrees).
struct Cone {
  double l = 0.0;
  double b = 0.0;
  double radius = 0.0;
};

struct Statement {
  std::string sql;
  /// What the one-shard oracle runs to check the answer: `sql` itself
  /// for plain reads, the bare select for INTO, and the equivalent
  /// base-table select for a MyDB re-read.
  std::string oracle_sql;
  Class cls = Class::kQuick;
  Compare compare = Compare::kBag;
  /// Statement shape ("finding_chart", "sweep_join", ...): the oracle
  /// samples a fixed number of each.
  const char* kind = "";
  /// Region the statement reads; radius 0 for full-catalog sweeps.
  Cone cone;
  /// Seconds after the run origin the statement is due. Negative: sent
  /// as soon as the connection's previous statement completes (closed
  /// loop, or a re-read chained to its INTO).
  double due_s = -1.0;
};

/// One connection's statements in send order. A closed-loop connection
/// has no fixed list: it draws statement i from SweepStatement(seed, i)
/// back to back until the run stops.
struct ConnectionPlan {
  std::string user;
  bool closed_loop = false;
  std::vector<Statement> statements;
};

struct Schedule {
  uint64_t seed = 0;
  std::vector<ConnectionPlan> connections;
};

/// The schedule of `workload` over [0, horizon_s) run seconds.
Schedule MakeSchedule(Workload workload, uint64_t seed, double horizon_s);

/// The i-th statement of the mining connection's closed loop.
Statement SweepStatement(uint64_t seed, uint64_t i);

/// Copy of an INTO statement that materializes table `table` instead:
/// replaying an INTO must not collide with the table the run created.
Statement IntoTable(const Statement& into, const std::string& table);

}  // namespace e2e

#endif  // E2E_BENCH_WORKLOAD_H_
