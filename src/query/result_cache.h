// Semantic result cache: epoch-versioned, cover-containment query reuse.
//
// The paper's archive workload is dominated by repeated and refined
// sweeps: a mining session re-runs the same cone search while tuning
// photometric cuts, and fleet fan-out pays the full scan each time. This
// cache closes that loop at the federation layer. Entries are keyed by
// (canonical plan fingerprint, store epoch):
//
//  - The fingerprint canonicalizes the plan tree, so queries that differ
//    only in commutative predicate ordering ("r < 22 AND g > 19" vs
//    "g > 19 AND r < 22"), operand order of symmetric comparisons, or
//    comparison direction ("r < 22" vs "22 > r") hash identically.
//  - The epoch is the fleet-wide mutation generation
//    (catalog::ObjectStore::epoch, summed by archive::ShardedStore::Epoch).
//    Any write anywhere bumps it, so a cached answer can never survive a
//    mutation; routing-only events (failover, replica promotion) leave it
//    unchanged, so cached answers survive them.
//
// Beyond exact replay, the cache answers by COVER CONTAINMENT: a query Q
// whose predicate implies a cached entry E's predicate is answered by
// filtering E's rows with Q's full predicate -- no fleet fan-out at all.
// The implication test is per-conjunct and conservative: every conjunct
// of E must be either canonically equal to a conjunct of Q, or a spatial
// atom whose region fully contains Q's plan region (checked exactly on
// the HTM grid: every leaf trixel Q's cover touches lies inside a FULL
// trixel of the atom's cover). Because rows carry their unit position
// (ResultRow::pos) and every projected/filter attribute verbatim from the
// scan, re-filtering reproduces the engine's row set bit-identically;
// ordered queries re-sort with RowBefore (the engine's one total order)
// and COUNT/MIN/MAX aggregates re-fold exactly. Order-sensitive floats
// (SUM/AVG) and unordered LIMITs fall through to a real run.
//
// Cost of a probe. Install covers each spatial conjunct of an entry
// once, outside the cache mutex, at the containment test's level, and
// keeps the FULL leaf ranges in the entry (their bytes count toward the
// entry's size). A probe that reaches the spatial test covers its own
// plan region once, under the mutex, on first use, and shares that
// cover across every entry it tests; each test is then one
// RangeSet::IsSubsetOf merge walk. Canonical-key conjuncts are checked
// before the spatial one, so an entry whose colour cut differs costs no
// geometry at all. A miss over N resident cone entries therefore pays
// at most one cover plus N merge walks, not 2N covers.
//
// Never cached: INTO and FROM mydb (personal stores version separately),
// SAMPLE (fresh Bernoulli draws each run), pair joins (rows do not carry
// positions), any query whose predicate divides (a divide-by-zero on a
// row outside a subset would be masked, and conjunct reordering is only
// semantics-preserving for error-free predicates), and LIMIT without
// ORDER BY (the kept subset is arrival-order nondeterministic).
//
// Eviction is byte-budgeted LRU with heat-weighted retention: each hit
// heats an entry; under pressure the coldest tail entry is evicted, but
// a still-warm one gets a single second chance (heat halved, recycled to
// the front) before it goes.

#ifndef SDSS_QUERY_RESULT_CACHE_H_
#define SDSS_QUERY_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "htm/range_set.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/qet.h"

namespace sdss::query {

class ResultCache {
 public:
  struct Options {
    /// Total byte budget across all entries (row payload + key,
    /// approximate accounting).
    size_t max_bytes = 8u << 20;
    /// Largest single entry admitted. 0 = max_bytes / 4.
    size_t max_entry_bytes = 0;
  };

  struct Stats {
    uint64_t hits = 0;              ///< Exact fingerprint replays.
    uint64_t containment_hits = 0;  ///< Served by filtering a superset.
    uint64_t misses = 0;
    uint64_t installs = 0;
    uint64_t evictions = 0;            ///< Budget-pressure evictions.
    uint64_t epoch_invalidations = 0;  ///< Entries dropped as stale.
    uint64_t entries = 0;
    uint64_t bytes_used = 0;
  };

  /// A cache-served answer: the final output rows of the query (for an
  /// aggregate, its single folded row).
  struct Answer {
    std::vector<ResultRow> rows;
    /// True when served by containment filtering rather than verbatim
    /// replay.
    bool containment = false;
  };

  ResultCache() : ResultCache(Options()) {}
  explicit ResultCache(Options options);

  /// True when this query may consult / populate the cache at all (see
  /// the never-cached list above). `parsed` supplies the clauses the
  /// plan no longer shows (SAMPLE, INTO, JOIN); `plan` supplies the
  /// predicates actually planned.
  static bool Cacheable(const ParsedQuery& parsed, const Plan& plan);

  /// Canonical fingerprint of the plan tree. Stable across commutative
  /// predicate orderings and comparison-direction flips.
  static std::string Fingerprint(const Plan& plan);

  /// Approximate in-memory footprint of one cached row.
  static size_t ApproxRowBytes(const ResultRow& row);

  /// The resolved per-entry admission cap in bytes.
  size_t entry_byte_cap() const;

  /// Looks up an answer for (fingerprint, epoch): exact replay first,
  /// cover containment second. Returns false on miss. Mutates LRU/heat
  /// state and drops stale-epoch entries it encounters.
  bool TryAnswer(const std::string& fingerprint, const Plan& plan,
                 uint64_t epoch, Answer* out);

  /// Non-mutating probe: would TryAnswer succeed right now? Used by
  /// admission control to price a predicted hit at zero scan bytes.
  bool WouldAnswer(const std::string& fingerprint, const Plan& plan,
                   uint64_t epoch) const;

  /// Installs the complete result row set of a run under (fingerprint,
  /// epoch), replacing any same-fingerprint entry. Oversized entries are
  /// dropped; admission may evict colder entries.
  void Install(const std::string& fingerprint, const Plan& plan,
               uint64_t epoch, std::vector<ResultRow> rows);

  void Clear();
  Stats stats() const;
  const Options& options() const { return options_; }

 private:
  struct Entry {
    std::string fingerprint;
    uint64_t epoch = 0;
    size_t bytes = 0;
    uint32_t heat = 0;    ///< Hit count since install / last decay.
    bool chance = false;  ///< Second chance spent this pressure round.
    std::vector<ResultRow> rows;

    // Containment serving (single-scan entries only).
    bool containment_capable = false;
    TableRef table = TableRef::kPhoto;
    std::vector<std::string> columns;  ///< Row value names, in order.
    std::vector<Expr::Ptr> conjuncts;  ///< Flattened entry predicate.
    std::vector<std::string> conjunct_keys;  ///< Canonical per-conjunct.
    /// Per conjunct: a spatial atom's FULL leaf ranges at the
    /// containment level (empty for other conjuncts). Computed once at
    /// install, so probes never re-cover the entry.
    std::vector<htm::RangeSet> conjunct_full;
  };
  using EntryList = std::list<Entry>;

  /// The containment-relevant shape of a query plan: its single scan
  /// leaf plus the ORDER/LIMIT/aggregate chain above it.
  struct Shape {
    const PlanNode* scan = nullptr;
    bool ordered = false;
    size_t order_col = 0;
    bool order_desc = false;
    int64_t limit = -1;
    AggFunc agg = AggFunc::kNone;
    std::string agg_attr;
    std::vector<std::string> needed;  ///< Attrs the entry must carry.
    std::vector<std::string> conjunct_keys;
    /// The plan region's leaf ranges (FULL and PARTIAL) at the
    /// containment level: computed on first use, then shared by every
    /// entry one probe tests.
    mutable std::optional<htm::RangeSet> region_ranges;

    const htm::RangeSet& RegionRanges() const;
  };

  /// Decomposes `plan` into a containment-servable shape; false when the
  /// plan cannot be answered from a superset entry (set ops, SUM/AVG,
  /// unordered LIMIT, ...).
  static bool AnalyzeShape(const Plan& plan, Shape* out);

  /// True when entry `e` provably contains every row of shape `q` and
  /// carries every attribute `q` needs.
  static bool EntryServes(const Entry& e, const Shape& q);

  /// The one candidate walk behind TryAnswer and WouldAnswer: the first
  /// entry of `lru`, in LRU order, at `epoch` that serves `q` and that
  /// `accept` takes, or lru.end(). Each stale entry met on the way is
  /// passed to `stale` after the walk has stepped past it.
  template <typename List, typename Stale, typename Accept>
  static auto FindServing(List& lru, const Shape& q, uint64_t epoch,
                          Stale&& stale, Accept&& accept);

  /// Filters/projects/sorts/folds `e`'s rows into `q`'s answer.
  static bool Materialize(const Entry& e, const Shape& q,
                          std::vector<ResultRow>* out);

  void TouchLocked(EntryList::iterator it);
  void EraseLocked(EntryList::iterator it);
  void EvictForBudgetLocked();

  Options options_;
  mutable std::mutex mu_;
  size_t bytes_used_ = 0;
  Stats stats_;
  EntryList lru_;  ///< Front = most recently used.
  std::unordered_map<std::string, EntryList::iterator> index_;
};

}  // namespace sdss::query

#endif  // SDSS_QUERY_RESULT_CACHE_H_
