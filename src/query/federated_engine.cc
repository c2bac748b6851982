#include "query/federated_engine.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <limits>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/angle.h"
#include "htm/cover.h"

namespace sdss::query {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Strips an optional leading "EXPLAIN ANALYZE" (case-insensitive) so
/// callers can hand the whole wire statement through unchanged.
std::string StripExplainAnalyze(const std::string& sql) {
  size_t pos = sql.find_first_not_of(" \t\r\n");
  if (pos == std::string::npos) return sql;
  for (std::string_view word : {std::string_view("EXPLAIN"),
                                std::string_view("ANALYZE")}) {
    if (sql.size() - pos < word.size()) return sql;
    for (size_t k = 0; k < word.size(); ++k) {
      if (std::toupper(static_cast<unsigned char>(sql[pos + k])) !=
          word[k]) {
        return sql;
      }
    }
    pos += word.size();
    if (pos >= sql.size() ||
        !std::isspace(static_cast<unsigned char>(sql[pos]))) {
      return sql;
    }
    pos = sql.find_first_not_of(" \t\r\n", pos);
    if (pos == std::string::npos) return sql;
  }
  return sql.substr(pos);
}

/// The pair-join leaf of a plan chain, or null. Join plans are a linear
/// agg/limit/sort chain over the kPairJoin leaf (the planner rejects
/// joins inside set operations).
const PlanNode* FindPairJoinNode(const PlanNode* root) {
  const PlanNode* n = root;
  while (n != nullptr && n->type != PlanNodeType::kPairJoin) {
    n = n->children.empty() ? nullptr : n->children[0].get();
  }
  return n;
}

/// True when any leaf of the tree is a node of type `type` (set-operation
/// trees have leaves on both sides).
bool AnyNodeOfType(const PlanNode* node, PlanNodeType type) {
  if (node == nullptr) return false;
  if (node->type == type) return true;
  for (const auto& c : node->children) {
    if (AnyNodeOfType(c.get(), type)) return true;
  }
  return false;
}

/// True when the tree reads the tag table somewhere.
bool AnyTagScan(const PlanNode* node) {
  if (node == nullptr) return false;
  if (node->type == PlanNodeType::kScan && node->table == TableRef::kTag) {
    return true;
  }
  for (const auto& c : node->children) {
    if (AnyTagScan(c.get())) return true;
  }
  return false;
}

/// Phase A of the federated neighbor join: each shard walks its
/// assigned containers and, for every phase-1 survivor whose separation
/// cap (htm::Cover at the container level) reaches a container another
/// shard serves, ships a copy of the object to that shard. Symmetric
/// shipping is what lets every shard emit exactly the pairs whose
/// lower-id member it owns: the partner of any in-radius pair is
/// guaranteed present, locally or as a ghost.
Result<std::vector<PairJoinGhosts>> HarvestJoinGhosts(
    const std::vector<Shard>& shards, const PlanNode* join,
    const std::atomic<bool>* cancel) {
  const size_t n = shards.size();
  std::vector<PairJoinGhosts> ghosts(n);
  if (n <= 1) return ghosts;

  // Container -> serving shard. A null assigned set means the shard
  // serves its whole store.
  std::unordered_map<uint64_t, size_t> owner;
  for (size_t i = 0; i < n; ++i) {
    if (shards[i].assigned == nullptr) {
      for (const auto& [raw, c] : shards[i].store->containers()) {
        owner.emplace(raw, i);
      }
    } else {
      for (uint64_t raw : *shards[i].assigned) owner.emplace(raw, i);
    }
  }

  // When the join is spatially pruned, only containers its region
  // cover touches can hold candidates -- skip the rest of the harvest.
  std::unordered_set<uint64_t> region_raws;
  if (join->has_region) {
    int level = shards[0].store->cluster_level();
    htm::ForEachRawInCover(
        htm::Cover(join->region, level), level,
        [&region_raws](uint64_t raw) { region_raws.insert(raw); });
  }

  double sep_deg = ArcsecToDeg(join->pair_max_sep_arcsec);
  std::vector<std::vector<std::vector<catalog::PhotoObj>>> staged(
      n, std::vector<std::vector<catalog::PhotoObj>>(n));
  std::vector<Status> errors(n);
  ThreadGroup threads;
  for (size_t i = 0; i < n; ++i) {
    threads.Spawn([&shards, &owner, &staged, &errors, &region_raws, join,
                   sep_deg, cancel, i] {
      const Shard& shard = shards[i];
      int level = shard.store->cluster_level();
      std::vector<size_t> dests;
      for (const auto& [raw, c] : shard.store->containers()) {
        if (shard.assigned != nullptr && shard.assigned->count(raw) == 0) {
          continue;
        }
        if (join->has_region && region_raws.count(raw) == 0) continue;
        for (const catalog::PhotoObj& o : c.rows()) {
          if (cancel != nullptr &&
              cancel->load(std::memory_order_relaxed)) {
            errors[i] = Status::Cancelled("query cancelled");
            return;
          }
          if (join->pair_select) {
            RowAccessor acc{[&o](const std::string& name) {
                              return catalog::GetAttribute(o, name);
                            },
                            o.pos};
            auto ok = join->pair_select->EvalBool(acc);
            if (!ok.ok()) {
              errors[i] = ok.status();
              return;
            }
            if (!*ok) continue;
          }
          // Which foreign shards serve a container within the cap?
          dests.clear();
          htm::ForEachRawInCover(
              htm::Cover(htm::Region::CircleAround(o.pos, sep_deg), level),
              level, [&](uint64_t raw2) {
                auto it = owner.find(raw2);
                if (it == owner.end() || it->second == i) return;
                if (std::find(dests.begin(), dests.end(), it->second) ==
                    dests.end()) {
                  dests.push_back(it->second);
                }
              });
          for (size_t d : dests) staged[i][d].push_back(o);
        }
      }
    });
  }
  threads.JoinAll();
  for (const Status& s : errors) {
    if (!s.ok()) return s;
  }
  for (size_t d = 0; d < n; ++d) {
    for (size_t i = 0; i < n; ++i) {
      ghosts[d].objects.insert(ghosts[d].objects.end(),
                               staged[i][d].begin(), staged[i][d].end());
    }
  }
  return ghosts;
}

/// A branch LIMIT inside a set query is a global cap on that branch's
/// contribution; per-shard set inputs would each apply it locally, so
/// such queries run branch-by-branch at the federation level instead.
bool AnyBranchLimit(const ParsedQuery& q) {
  if (!q.IsSetQuery()) return false;
  if (q.first.limit >= 0) return true;
  for (const auto& [op, select] : q.rest) {
    if (select.limit >= 0) return true;
  }
  return false;
}

/// Mixes an unordered pair of object ids into one hash (exact equality
/// still decides membership -- collisions cannot drop pairs).
struct PairKeyHash {
  size_t operator()(const std::pair<uint64_t, uint64_t>& p) const {
    uint64_t h = p.first * 0x9E3779B97F4A7C15ull;
    h ^= p.second + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    return static_cast<size_t>(h);
  }
};

/// Pull-side cursor over one shard's (sorted) batch stream.
class MergeCursor {
 public:
  explicit MergeCursor(std::shared_ptr<RowChannel> ch)
      : ch_(std::move(ch)) {}

  /// Current head row, or nullptr once the stream is exhausted.
  const ResultRow* Head() {
    if (done_) return nullptr;
    while (pos_ >= batch_.size()) {
      batch_.clear();
      pos_ = 0;
      if (!ch_->Pop(&batch_)) {
        done_ = true;
        return nullptr;
      }
    }
    return &batch_[pos_];
  }

  ResultRow Take() { return std::move(batch_[pos_++]); }

 private:
  std::shared_ptr<RowChannel> ch_;
  RowBatch batch_;
  size_t pos_ = 0;
  bool done_ = false;
};

/// Streams `rows` to `sink` in batches of at most `batch_size` rows.
/// Returns false once the sink stops consumption.
bool EmitRows(RowBatch&& rows, size_t batch_size,
              const std::function<bool(RowBatch&&)>& sink) {
  for (size_t i = 0; i < rows.size(); i += batch_size) {
    const size_t end = std::min(i + batch_size, rows.size());
    RowBatch batch(std::make_move_iterator(rows.begin() + i),
                   std::make_move_iterator(rows.begin() + end));
    if (!sink(std::move(batch))) return false;
  }
  return true;
}

/// A sink appending every row to `rows`.
std::function<bool(RowBatch&&)> AppendTo(RowBatch* rows) {
  return [rows](RowBatch&& batch) {
    rows->insert(rows->end(), std::make_move_iterator(batch.begin()),
                 std::make_move_iterator(batch.end()));
    return true;
  };
}

/// A sink folding every row into `fold`: shard-partial rows carry the
/// decomposed {count, sum, min, max}, raw rows add their first value.
std::function<bool(RowBatch&&)> FoldInto(AggFold* fold, bool partial_rows) {
  return [fold, partial_rows](RowBatch&& batch) {
    for (const ResultRow& r : batch) {
      if (!partial_rows) {
        ++fold->count;
        if (!r.values.empty()) fold->Add(r.values[0]);
      } else if (r.values.size() == 4) {
        AggFold part;
        part.count = static_cast<uint64_t>(r.values[0]);
        part.sum = r.values[1];
        part.min_v = r.values[2];
        part.max_v = r.values[3];
        fold->Merge(part);
      }
    }
    return true;
  };
}

bool IsSetNode(const PlanNode* node) {
  return node->type == PlanNodeType::kUnion ||
         node->type == PlanNodeType::kIntersect ||
         node->type == PlanNodeType::kDifference;
}

/// The select branches of the planner's left-deep set-operation tree,
/// left to right, each paired with the operator that folds it into the
/// branches before it (the first branch's entry is its own type).
std::vector<std::pair<PlanNodeType, const PlanNode*>> SetBranches(
    const PlanNode* node) {
  std::vector<std::pair<PlanNodeType, const PlanNode*>> out;
  for (; IsSetNode(node); node = node->children[0].get()) {
    out.emplace_back(node->type, node->children[1].get());
  }
  out.emplace_back(node->type, node);
  std::reverse(out.begin(), out.end());
  return out;
}

/// Folds `rhs` into `acc` with the executor's set semantics: bags keyed
/// by obj_id, the left stream's order preserved.
void ApplySetOp(PlanNodeType op, RowBatch* acc, RowBatch&& rhs) {
  std::unordered_set<uint64_t> ids;
  if (op == PlanNodeType::kUnion) {
    for (const ResultRow& r : *acc) ids.insert(r.obj_id);
    for (ResultRow& r : rhs) {
      if (ids.insert(r.obj_id).second) acc->push_back(std::move(r));
    }
    return;
  }
  for (const ResultRow& r : rhs) ids.insert(r.obj_id);
  const bool keep_if_present = op == PlanNodeType::kIntersect;
  RowBatch kept;
  for (ResultRow& r : *acc) {
    if ((ids.count(r.obj_id) > 0) == keep_if_present) {
      kept.push_back(std::move(r));
    }
  }
  *acc = std::move(kept);
}

void AddScanCounters(const ExecStats& from, ExecStats* into) {
  into->containers_scanned += from.containers_scanned;
  into->containers_columnar += from.containers_columnar;
  into->objects_examined += from.objects_examined;
  into->objects_matched += from.objects_matched;
  into->bytes_touched += from.bytes_touched;
  into->bytes_shipped += from.bytes_shipped;
}

/// Opens one shard's span under a fan_out span, on the shard's own
/// display lane.
int BeginShardSpan(QueryTrace* trace, int fan_span, size_t index,
                   const Shard& shard) {
  const int span =
      TraceBegin(trace, "shard", fan_span, 1 + static_cast<int>(index));
  TraceNum(trace, span, "server", static_cast<double>(shard.server));
  return span;
}

}  // namespace

struct FederatedQueryEngine::Prepared {
  ParsedQuery parsed;
  std::vector<Shard> shards;
  Plan plan;
  /// The plan reads a personal mydb store, which is never sharded.
  bool mydb = false;
  double seconds_plan = 0.0;  ///< Parse + plan wall time (Prepare).

  /// Shape (a): a personal store or a fleet of one runs the whole tree
  /// on one executor.
  bool single_store() const { return mydb || shards.size() == 1; }
};

/// How the fan-out merges the shard streams: the subtree every shard
/// runs, plus the global ORDER / LIMIT / dedupe the merge must mirror.
struct FederatedQueryEngine::MergePolicy {
  const PlanNode* root = nullptr;
  /// K-way merge of per-shard sorted streams on (order_col, order_desc);
  /// unordered streams interleave in ASAP arrival order.
  bool ordered = false;
  size_t order_col = 0;
  bool order_desc = false;
  /// Global row cap (-1 = none); per-shard limits are supersets of it.
  int64_t limit = -1;
  /// Drop pair rows another shard's stream already delivered.
  bool dedupe_pairs = false;
  /// Boundary ghosts for each shard's pair join, indexed like the shards.
  const std::vector<PairJoinGhosts>* ghosts = nullptr;

  /// The policy mirroring the ORDER/LIMIT wrappers at the top of `root`.
  static MergePolicy ForChain(const PlanNode* root) {
    MergePolicy policy;
    policy.root = root;
    const PlanNode* n = root;
    if (n->type == PlanNodeType::kLimit) {
      policy.limit = n->limit;
      n = n->children[0].get();
    }
    if (n->type == PlanNodeType::kSort) {
      policy.ordered = true;
      policy.order_col = n->sort_column;
      policy.order_desc = n->sort_desc;
    }
    return policy;
  }
};

FederatedQueryEngine::FederatedQueryEngine(std::vector<Shard> shards,
                                           Options options)
    : options_(options),
      pool_(options.executor.scan_threads),
      shards_(std::move(shards)) {
  if (options_.result_cache_bytes > 0) {
    ResultCache::Options cache_options;
    cache_options.max_bytes = options_.result_cache_bytes;
    cache_ = std::make_unique<ResultCache>(cache_options);
  }
  if (options_.metrics != nullptr) {
    m_queries_ = options_.metrics->GetCounter("query_total");
    m_cache_hits_ = options_.metrics->GetCounter("query_cache_hits");
    m_cache_containment_ =
        options_.metrics->GetCounter("query_cache_containment");
    m_cache_misses_ = options_.metrics->GetCounter("query_cache_misses");
    m_exec_us_ = options_.metrics->GetHistogram("query_exec_us");
  }
}

uint64_t FederatedQueryEngine::CacheEpoch(
    const std::vector<Shard>& shards) const {
  if (options_.cache_epoch_source) return options_.cache_epoch_source();
  // Fallback: sum the distinct live stores' epochs. (The fleet owner
  // should inject ShardedStore::Epoch instead -- this sum changes when
  // routing drops a downed store from the live list, needlessly
  // invalidating the cache across failover.)
  uint64_t sum = 0;
  std::unordered_set<const catalog::ObjectStore*> seen;
  for (const Shard& s : shards) {
    if (seen.insert(s.store).second) sum += s.store->epoch();
  }
  return sum;
}

void FederatedQueryEngine::SetShards(std::vector<Shard> shards) {
  std::lock_guard<std::mutex> lock(mu_);
  shards_ = std::move(shards);
}

size_t FederatedQueryEngine::num_shards() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shards_.size();
}

std::vector<Shard> FederatedQueryEngine::SnapshotShards() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shards_;
}

Result<FederatedQueryEngine::Prepared> FederatedQueryEngine::Prepare(
    const std::string& sql, const ExecContext& ctx) const {
  auto t0 = std::chrono::steady_clock::now();
  const int plan_span = TraceBegin(ctx.trace, "plan");
  Prepared prep;
  auto parsed = Parse(sql);
  if (!parsed.ok()) {
    TraceEnd(ctx.trace, plan_span);
    return parsed.status();
  }
  prep.parsed = std::move(parsed).value();
  prep.shards = SnapshotShards();
  if (prep.shards.empty()) {
    TraceEnd(ctx.trace, plan_span);
    return Status::FailedPrecondition("federation has no live shards");
  }
  // One plan for the whole fleet: planner decisions (tag selection,
  // spatial extraction) are store-independent, so every shard executes
  // this same tree against its own containers. The job context may bind
  // a per-user mydb namespace on top of the engine's planner options.
  PlannerOptions planner = options_.planner;
  if (ctx.mydb) planner.mydb = ctx.mydb;
  auto plan = BuildPlan(prep.parsed, *prep.shards[0].store, planner);
  if (!plan.ok()) {
    TraceEnd(ctx.trace, plan_span);
    return plan.status();
  }
  prep.plan = std::move(plan).value();
  prep.mydb = AnyNodeOfType(prep.plan.root.get(), PlanNodeType::kMyDbScan);

  // A table no live shard can serve must be a clean refusal, not a
  // silently empty result: an explicit FROM tag against a fleet whose
  // stores were built without the tag partition scans nothing.
  if (!prep.mydb && AnyTagScan(prep.plan.root.get())) {
    bool tag_on_some_shard = false;
    for (const Shard& shard : prep.shards) {
      if (shard.store->options().build_tags) {
        tag_on_some_shard = true;
        break;
      }
    }
    if (!tag_on_some_shard) {
      TraceEnd(ctx.trace, plan_span);
      return Status::NotFound(
          "table 'tag' exists on no live shard (fleet stores hold no tag "
          "partition)");
    }
  }
  prep.seconds_plan = SecondsSince(t0);
  TraceNum(ctx.trace, plan_span, "shards",
           static_cast<double>(prep.shards.size()));
  if (prep.mydb) TraceNote(ctx.trace, plan_span, "store", "mydb");
  TraceEnd(ctx.trace, plan_span);
  return prep;
}

Result<ExecStats> FederatedQueryEngine::Run(
    const std::string& sql, const ExecContext& ctx,
    const std::function<void(const Prepared&)>& on_plan, const Sink& sink) {
  auto prep = Prepare(sql, ctx);
  if (!prep.ok()) return prep.status();
  if (!prep->parsed.first.into_mydb.empty() && !ctx.into_sink) {
    return Status::InvalidArgument(
        "INTO mydb." + prep->parsed.first.into_mydb +
        " must run through the batch workbench; the engine alone would "
        "discard the materialization");
  }
  on_plan(*prep);

  // Every stage clock is set here, once, whatever answers the query:
  // seconds_total spans probe + harvest + fan-out, and every row that
  // leaves the engine passes `out`, which times the caller's sink.
  const auto t0 = std::chrono::steady_clock::now();
  ExecStats stats;
  stats.seconds_plan = prep->seconds_plan;
  bool first = true;
  const Sink out = [&](RowBatch&& batch) {
    if (batch.empty()) return true;
    if (first) {
      stats.seconds_to_first_row = SecondsSince(t0);
      first = false;
    }
    stats.rows_emitted += batch.size();
    const auto s0 = std::chrono::steady_clock::now();
    const bool more = sink(std::move(batch));
    stats.seconds_stream_out += SecondsSince(s0);
    if (!more) stats.cancelled_early = true;
    return more;
  };

  const bool cacheable = cache_ != nullptr && !ctx.no_result_cache &&
                         !ctx.into_sink && !prep->mydb &&
                         ResultCache::Cacheable(prep->parsed, prep->plan);
  std::string fingerprint;
  uint64_t epoch = 0;
  ResultCache::Answer answer;
  bool answered = false;
  if (cacheable) {
    const int probe_span = TraceBegin(ctx.trace, "cache_probe");
    fingerprint = ResultCache::Fingerprint(prep->plan);
    epoch = CacheEpoch(prep->shards);
    answered = cache_->TryAnswer(fingerprint, prep->plan, epoch, &answer);
    stats.seconds_cache_probe = SecondsSince(t0);
    const bool contained = answered && answer.containment;
    TraceNote(ctx.trace, probe_span, "verdict",
              !answered ? "miss" : contained ? "containment" : "hit");
    TraceEnd(ctx.trace, probe_span);
    metrics::Counter* verdict = m_cache_misses_;
    if (answered) verdict = contained ? m_cache_containment_ : m_cache_hits_;
    if (verdict != nullptr) verdict->Inc();
  }

  if (answered) {
    stats.cache_hit = !answer.containment;
    stats.cache_containment = answer.containment;
    EmitRows(std::move(answer.rows), options_.executor.batch_size, out);
  } else {
    // A miss tees the output rows for installation. The buffer is
    // abandoned (and the run left uncached) the moment it outgrows the
    // per-entry budget.
    RowBatch buffer;
    size_t buffer_bytes = 0;
    bool overflow = false;
    const Sink tee = [&](RowBatch&& batch) {
      for (const ResultRow& r : batch) {
        if (overflow) break;
        buffer_bytes += ResultCache::ApproxRowBytes(r);
        if (buffer_bytes > cache_->entry_byte_cap()) {
          overflow = true;
          buffer.clear();
          buffer.shrink_to_fit();
          break;
        }
        buffer.push_back(r);
      }
      return out(std::move(batch));
    };
    const Sink& run_sink = cacheable ? tee : out;
    const auto f0 = std::chrono::steady_clock::now();
    Status run = prep->single_store()
                     ? RunSingleStore(*prep, ctx, run_sink, &stats)
                     : RunFanOut(*prep, ctx, run_sink, &stats);
    if (!run.ok()) return run;
    stats.seconds_fan_out = SecondsSince(f0) - stats.seconds_ghost_harvest;
    // Install only a clean, complete answer observed under an unchanged
    // epoch: a cancelled sink saw a prefix, and a mid-run write may have
    // leaked into the row set (the re-read guards that race).
    if (cacheable && !overflow && !stats.cancelled_early &&
        CacheEpoch(prep->shards) == epoch) {
      cache_->Install(fingerprint, prep->plan, epoch, std::move(buffer));
    }
  }
  stats.seconds_total = SecondsSince(t0);
  if (first) stats.seconds_to_first_row = stats.seconds_total;
  if (m_queries_ != nullptr) m_queries_->Inc();
  if (m_exec_us_ != nullptr) {
    m_exec_us_->Record(static_cast<uint64_t>(stats.seconds_total * 1e6));
  }
  return stats;
}

Result<ExecStats> FederatedQueryEngine::RunShard(
    const Shard& shard, const PlanNode* root, const Sink& sink,
    const PairJoinGhosts* ghosts, const ExecContext& ctx, int span) {
  Executor executor(shard.store, options_.executor, &pool_);
  auto st = executor.RunTree(
      root, sink, shard.assigned.get(), ghosts, ctx.cancel,
      ctx.access_recorder ? &ctx.access_recorder : nullptr);
  QueryTrace* trace = ctx.trace;
  if (trace != nullptr && st.ok()) {
    trace->Num(span, "containers",
               static_cast<double>(st->containers_scanned));
    trace->Num(span, "columnar",
               static_cast<double>(st->containers_columnar));
    trace->Num(span, "bytes", static_cast<double>(st->bytes_touched));
    trace->Num(span, "bytes_shipped", static_cast<double>(st->bytes_shipped));
    trace->Num(span, "rows", static_cast<double>(st->rows_emitted));
    trace->Num(span, "seconds", st->seconds_total);
    trace->Note(span, "kernel",
                st->containers_columnar > 0
                    ? (st->containers_columnar == st->containers_scanned
                           ? "columnar"
                           : "mixed")
                    : "row");
  }
  TraceEnd(trace, span);
  return st;
}

Status FederatedQueryEngine::RunSingleStore(const Prepared& prep,
                                            const ExecContext& ctx,
                                            const Sink& sink,
                                            ExecStats* stats) {
  // The fan-out's span vocabulary -- a fan_out span with one shard child
  // -- so EXPLAIN ANALYZE reads both shapes alike; no merge span, since
  // the executor's root stream already is the answer.
  const int fan_span = TraceBegin(ctx.trace, "fan_out");
  TraceNum(ctx.trace, fan_span, "shards", 1.0);
  const Shard& shard = prep.shards[0];
  const int span = BeginShardSpan(ctx.trace, fan_span, 0, shard);
  auto st = RunShard(shard, prep.plan.root.get(), sink, nullptr, ctx, span);
  if (st.ok()) {
    AddScanCounters(*st, stats);
    TraceNum(ctx.trace, fan_span, "rows",
             static_cast<double>(st->rows_emitted));
  }
  TraceEnd(ctx.trace, fan_span);
  return st.status();
}

Status FederatedQueryEngine::FanOut(const Prepared& prep,
                                    const ExecContext& ctx,
                                    const MergePolicy& policy,
                                    const Sink& sink, ExecStats* stats) {
  const std::vector<Shard>& shards = prep.shards;
  const size_t n = shards.size();
  QueryTrace* trace = ctx.trace;
  const int fan_span = TraceBegin(trace, "fan_out");
  TraceNum(trace, fan_span, "shards", static_cast<double>(n));

  // One channel per shard when the merge must preserve order; one shared
  // channel (ASAP arrival order) otherwise.
  std::vector<std::shared_ptr<RowChannel>> channels(policy.ordered ? n : 1);
  for (auto& ch : channels) ch = std::make_shared<RowChannel>();
  auto channel_for = [&](size_t i) {
    return policy.ordered ? channels[i] : channels[0];
  };
  for (size_t i = 0; i < n; ++i) channel_for(i)->AddWriter();

  std::vector<Result<ExecStats>> shard_stats(n, Result<ExecStats>(
                                                    ExecStats{}));
  ThreadGroup threads;
  for (size_t i = 0; i < n; ++i) {
    // Shard spans open here, on the launch thread, so their Begin order
    // (= span index order) is deterministic regardless of how the shard
    // threads interleave; each shard thread closes and annotates its own.
    const int span = BeginShardSpan(trace, fan_span, i, shards[i]);
    const PairJoinGhosts* ghosts =
        policy.ghosts != nullptr ? &(*policy.ghosts)[i] : nullptr;
    threads.Spawn([this, &shards, &policy, &ctx, &shard_stats,
                   ch = channel_for(i), ghosts, span, i] {
      shard_stats[i] = RunShard(
          shards[i], policy.root,
          [&ch](RowBatch&& batch) { return ch->Push(std::move(batch)); },
          ghosts, ctx, span);
      ch->CloseWriter();
    });
  }
  const int merge_span = TraceBegin(trace, "merge", fan_span);

  int64_t remaining = policy.limit < 0 ? std::numeric_limits<int64_t>::max()
                                       : policy.limit;
  uint64_t rows = 0;
  // Drops pairs already delivered by another shard's stream. The
  // emission discipline makes fleet-wide duplicates impossible by
  // construction, so this is a cheap invariant backstop, keyed on the
  // unordered pair ids.
  std::unordered_set<std::pair<uint64_t, uint64_t>, PairKeyHash> seen_pairs;

  // Dedupes (join merges), trims to the global limit, forwards to the
  // sink. Returns false when consumption must stop.
  auto deliver = [&](RowBatch&& batch) -> bool {
    if (remaining <= 0) return false;
    if (policy.dedupe_pairs) {
      RowBatch unique;
      unique.reserve(batch.size());
      for (ResultRow& r : batch) {
        auto key = std::minmax(r.obj_id, r.obj_id_b);
        if (seen_pairs.emplace(key.first, key.second).second) {
          unique.push_back(std::move(r));
        }
      }
      batch = std::move(unique);
    }
    if (batch.empty()) return true;
    if (static_cast<int64_t>(batch.size()) > remaining) {
      batch.resize(static_cast<size_t>(remaining));
    }
    remaining -= static_cast<int64_t>(batch.size());
    rows += batch.size();
    return sink(std::move(batch)) && remaining > 0;
  };

  if (policy.ordered) {
    // K-way merge of the per-shard sorted streams, same comparator as
    // the executor's sort node (value, then obj_id tie-break).
    std::vector<MergeCursor> cursors;
    cursors.reserve(n);
    for (auto& ch : channels) cursors.emplace_back(ch);
    RowBatch out;
    const size_t batch_size = options_.executor.batch_size;
    bool stop = remaining <= 0;
    while (!stop) {
      MergeCursor* best = nullptr;
      const ResultRow* best_head = nullptr;
      for (auto& c : cursors) {
        const ResultRow* h = c.Head();
        if (h == nullptr) continue;
        if (best == nullptr || RowBefore(*h, *best_head, policy.order_col,
                                         policy.order_desc)) {
          best = &c;
          best_head = h;
        }
      }
      if (best == nullptr) break;
      out.push_back(best->Take());
      if (out.size() >= batch_size ||
          static_cast<int64_t>(out.size()) >= remaining) {
        stop = !deliver(std::move(out));
        out = RowBatch();
      }
    }
    if (!stop && !out.empty()) deliver(std::move(out));
  } else {
    RowBatch batch;
    while (channels[0]->Pop(&batch)) {
      if (!deliver(std::move(batch))) break;
      batch = RowBatch();
    }
  }

  // Stop any still-producing shard (no-op on clean completion) and wait.
  for (auto& ch : channels) ch->Cancel();
  TraceEnd(trace, merge_span);
  threads.JoinAll();
  TraceNum(trace, fan_span, "rows", static_cast<double>(rows));
  TraceEnd(trace, fan_span);
  for (const auto& r : shard_stats) {
    if (!r.ok()) return r.status();
    AddScanCounters(*r, stats);
  }
  return Status::OK();
}

Status FederatedQueryEngine::RunFanOut(Prepared& prep, const ExecContext& ctx,
                                       const Sink& sink, ExecStats* stats) {
  PlanNode* root = prep.plan.root.get();
  PlanNode* agg = root->type == PlanNodeType::kAggregate ? root : nullptr;
  const PlanNode* body = agg != nullptr ? root->children[0].get() : root;
  MergePolicy policy = MergePolicy::ForChain(body);
  const PlanNode* join = FindPairJoinNode(body);
  const bool branch_limits = AnyBranchLimit(prep.parsed);
  // A decomposable aggregate runs on every shard in partial mode and
  // ships {count, sum, min, max}. A LIMIT below the fold caps the global
  // row set, and join pairs and branch-limited sets only exist after the
  // merge, so those stream their rows up and fold here instead.
  const bool partial =
      agg != nullptr && join == nullptr && !branch_limits && policy.limit < 0;
  AggFold fold;
  const Sink rows = agg == nullptr ? sink : FoldInto(&fold, partial);

  Status status;
  if (join != nullptr) {
    // Phase A: boundary ghost exchange between the shards (its time is
    // the seconds_ghost_harvest stage).
    const auto t0 = std::chrono::steady_clock::now();
    const int ghost_span = TraceBegin(ctx.trace, "ghost_harvest");
    auto ghosts = HarvestJoinGhosts(prep.shards, join, ctx.cancel);
    stats->seconds_ghost_harvest = SecondsSince(t0);
    if (ghosts.ok()) {
      uint64_t shipped = 0;
      for (const PairJoinGhosts& g : *ghosts) shipped += g.objects.size();
      TraceNum(ctx.trace, ghost_span, "ghost_objects",
               static_cast<double>(shipped));
    }
    TraceEnd(ctx.trace, ghost_span);
    if (!ghosts.ok()) return ghosts.status();
    // Phase B: every shard emits exactly the pairs whose lower-id member
    // it serves, merged and deduped here.
    policy.ghosts = &*ghosts;
    policy.dedupe_pairs = true;
    status = FanOut(prep, ctx, policy, rows, stats);
  } else if (branch_limits) {
    // A branch LIMIT caps that branch globally, while per-shard set
    // inputs would each apply it locally: every branch fans out as its
    // own ordered and limited select, and the set algebra folds here.
    const auto branches = SetBranches(body);
    RowBatch acc;
    for (size_t i = 0; status.ok() && i < branches.size(); ++i) {
      RowBatch part;
      status = FanOut(prep, ctx, MergePolicy::ForChain(branches[i].second),
                      AppendTo(&part), stats);
      if (i == 0) {
        acc = std::move(part);
      } else {
        ApplySetOp(branches[i].first, &acc, std::move(part));
      }
    }
    if (status.ok()) {
      EmitRows(std::move(acc), options_.executor.batch_size, rows);
    }
  } else if (partial) {
    MergePolicy partials;
    partials.root = agg;
    agg->agg_partial = true;
    status = FanOut(prep, ctx, partials, rows, stats);
    agg->agg_partial = false;
  } else {
    status = FanOut(prep, ctx, policy, rows, stats);
  }
  if (!status.ok() || agg == nullptr) return status;

  const int fold_span = TraceBegin(ctx.trace, "fold");
  sink(RowBatch{FinishAggregate(agg->agg, false, fold)});
  TraceEnd(ctx.trace, fold_span);
  return Status::OK();
}

Result<QueryResult> FederatedQueryEngine::Execute(const std::string& sql,
                                                  const ExecContext& ctx) {
  QueryResult result;
  auto stats = Run(
      sql, ctx,
      [&result](const Prepared& prep) {
        result.columns = prep.plan.columns;
        result.is_aggregate = prep.plan.is_aggregate;
        result.used_tag_store = prep.plan.used_tag_store;
        result.used_spatial_index = prep.plan.used_spatial_index;
        if (prep.mydb) {
          // Personal store: the plan-level density-map estimate IS the
          // total.
          result.prediction = prep.plan.prediction;
          return;
        }
        // Fleet-wide prediction: the per-shard density-map slices summed.
        for (const ShardPrediction& p :
             PredictShards(prep.shards, prep.plan)) {
          result.prediction.expected_objects += p.expected_objects;
          result.prediction.min_objects += p.min_objects;
          result.prediction.max_objects += p.max_objects;
          result.prediction.bytes_to_scan += p.bytes_to_scan;
        }
      },
      AppendTo(&result.rows));
  if (!stats.ok()) return stats.status();
  result.exec = *stats;
  if (result.is_aggregate && !result.rows.empty() &&
      !result.rows[0].values.empty()) {
    result.aggregate_value = result.rows[0].values[0];
  }
  return result;
}

Result<ExecStats> FederatedQueryEngine::ExecuteStreaming(
    const std::string& sql,
    const std::function<bool(const RowBatch&)>& on_batch,
    const ExecContext& ctx) {
  return ExecuteStreaming(sql, nullptr, on_batch, ctx);
}

Result<ExecStats> FederatedQueryEngine::ExecuteStreaming(
    const std::string& sql,
    const std::function<void(const ResultHeader&)>& on_header,
    const std::function<bool(const RowBatch&)>& on_batch,
    const ExecContext& ctx) {
  return Run(
      sql, ctx,
      [&on_header](const Prepared& prep) {
        if (on_header) {
          on_header(ResultHeader{prep.plan.columns, prep.plan.is_aggregate});
        }
      },
      [&on_batch](RowBatch&& batch) { return on_batch(batch); });
}

Result<CostEstimate> FederatedQueryEngine::EstimateCost(
    const std::string& sql, const ExecContext& ctx) {
  auto prep = Prepare(sql, ctx);
  if (!prep.ok()) return prep.status();
  CostEstimate est;
  est.into_mydb = prep->parsed.first.into_mydb;
  if (prep->mydb) {
    est.personal_store = true;
    est.bytes_to_scan = prep->plan.prediction.bytes_to_scan;
    est.expected_objects = prep->plan.prediction.expected_objects;
    return est;
  }
  for (const ShardPrediction& p : PredictShards(prep->shards, prep->plan)) {
    est.bytes_to_scan += p.bytes_to_scan;
    est.bytes_shipped += p.bytes_shipped;
    est.expected_objects += p.expected_objects;
  }
  // Admission prices a predicted cache hit at zero scan bytes (QUICK
  // lane): the probe is non-mutating, so estimating never perturbs
  // LRU/heat state.
  if (cache_ != nullptr && !ctx.no_result_cache && !ctx.into_sink &&
      est.into_mydb.empty() &&
      ResultCache::Cacheable(prep->parsed, prep->plan) &&
      cache_->WouldAnswer(ResultCache::Fingerprint(prep->plan), prep->plan,
                          CacheEpoch(prep->shards))) {
    est.predicted_cache_hit = true;
  }
  return est;
}

Result<std::string> FederatedQueryEngine::Explain(const std::string& sql,
                                                  const ExecContext& ctx) {
  auto prep = Prepare(sql, ctx);
  if (!prep.ok()) return prep.status();

  std::string out = prep->plan.Explain();
  char buf[192];
  if (prep->mydb) {
    std::snprintf(buf, sizeof(buf),
                  "personal store: mydb (no fleet fan-out)\n"
                  "prediction: %.0f objects expected, %llu bytes to scan\n",
                  prep->plan.prediction.expected_objects,
                  static_cast<unsigned long long>(
                      prep->plan.prediction.bytes_to_scan));
    out += buf;
    return out;
  }
  auto preds = PredictShards(prep->shards, prep->plan);
  std::snprintf(buf, sizeof(buf), "federation: %zu live shards\n",
                prep->shards.size());
  out += buf;
  catalog::ObjectStore::Prediction total;
  uint64_t total_shipped = 0;
  for (const ShardPrediction& p : preds) {
    std::snprintf(buf, sizeof(buf),
                  "  shard %zu: %llu containers, %llu bytes, %.0f objects "
                  "expected [%llu, %llu]\n",
                  p.server, static_cast<unsigned long long>(p.containers),
                  static_cast<unsigned long long>(p.bytes_to_scan),
                  p.expected_objects,
                  static_cast<unsigned long long>(p.min_objects),
                  static_cast<unsigned long long>(p.max_objects));
    out += buf;
    if (p.bytes_shipped > 0) {
      std::snprintf(buf, sizeof(buf),
                    "    ghost exchange: %llu bytes shipped (est)\n",
                    static_cast<unsigned long long>(p.bytes_shipped));
      out += buf;
    }
    total.expected_objects += p.expected_objects;
    total.min_objects += p.min_objects;
    total.max_objects += p.max_objects;
    total.bytes_to_scan += p.bytes_to_scan;
    total_shipped += p.bytes_shipped;
  }
  std::snprintf(buf, sizeof(buf),
                "prediction: %.0f objects expected [%llu, %llu], %llu bytes "
                "to scan\n",
                total.expected_objects,
                static_cast<unsigned long long>(total.min_objects),
                static_cast<unsigned long long>(total.max_objects),
                static_cast<unsigned long long>(total.bytes_to_scan));
  out += buf;
  if (total_shipped > 0) {
    std::snprintf(buf, sizeof(buf),
                  "network: %llu bytes shipped between shards (est)\n",
                  static_cast<unsigned long long>(total_shipped));
    out += buf;
  }
  return out;
}

Result<FederatedQueryEngine::ExplainAnalysis>
FederatedQueryEngine::ExplainAnalyze(const std::string& sql,
                                     const ExecContext& ctx) {
  // The analysis always runs on its own trace: a caller-provided one
  // could carry shard spans from an earlier run and corrupt the ledger.
  // The capture comes back as ExplainAnalysis::trace_json instead.
  QueryTrace trace;
  ExecContext run_ctx = ctx;
  run_ctx.trace = &trace;
  // Bypass the result cache both ways: EXPLAIN ANALYZE exists to
  // measure the fleet scan the density map predicted, and its drained
  // rows must not displace real cached answers.
  run_ctx.no_result_cache = true;
  // The analysis drains rows without materializing an INTO target, so
  // the run refuses INTO like any engine call without a sink for it.
  run_ctx.into_sink = false;

  ExplainAnalysis out;
  std::vector<ShardPrediction> preds;
  std::string report;
  char buf[224];
  auto stats = Run(
      StripExplainAnalyze(sql), run_ctx,
      [&](const Prepared& prep) {
        report = prep.plan.Explain();
        if (prep.mydb) {
          report += "personal store: mydb (no fleet fan-out)\n";
          return;
        }
        preds = PredictShards(prep.shards, prep.plan);
        std::snprintf(buf, sizeof(buf),
                      "federation: %zu live shards (analyzed run, result "
                      "cache bypassed)\n",
                      prep.shards.size());
        report += buf;
      },
      [](RowBatch&&) { return true; });
  if (!stats.ok()) return stats.status();
  out.exec = *stats;

  // Stitch prediction against measurement by server id. Branch-limited
  // set queries fan out once per branch, so a server may own several
  // shard spans: actuals sum, wall time takes the longest leg.
  const std::vector<TraceSpan> shard_spans = trace.Find("shard");
  for (const ShardPrediction& p : preds) {
    ShardAnalysis row;
    row.server = p.server;
    row.containers_predicted = p.containers;
    row.predicted_bytes = p.bytes_to_scan;
    for (const TraceSpan& s : shard_spans) {
      if (s.Num("server", -1.0) != static_cast<double>(p.server)) continue;
      row.containers_scanned +=
          static_cast<uint64_t>(s.Num("containers"));
      row.containers_columnar += static_cast<uint64_t>(s.Num("columnar"));
      row.actual_bytes += static_cast<uint64_t>(s.Num("bytes"));
      row.rows += static_cast<uint64_t>(s.Num("rows"));
      row.seconds = std::max(row.seconds, s.Num("seconds"));
    }
    out.shards.push_back(row);
  }

  uint64_t predicted_total = 0;
  uint64_t actual_total = 0;
  for (const ShardAnalysis& r : out.shards) {
    std::snprintf(
        buf, sizeof(buf),
        "  shard %zu: predicted %llu bytes / %llu containers; actual "
        "%llu bytes / %llu containers (%llu columnar), %llu rows, %.6f s\n",
        r.server, static_cast<unsigned long long>(r.predicted_bytes),
        static_cast<unsigned long long>(r.containers_predicted),
        static_cast<unsigned long long>(r.actual_bytes),
        static_cast<unsigned long long>(r.containers_scanned),
        static_cast<unsigned long long>(r.containers_columnar),
        static_cast<unsigned long long>(r.rows), r.seconds);
    report += buf;
    predicted_total += r.predicted_bytes;
    actual_total += r.actual_bytes;
  }
  if (!out.shards.empty()) {
    const double err =
        predicted_total == 0
            ? 0.0
            : 100.0 *
                  (static_cast<double>(actual_total) -
                   static_cast<double>(predicted_total)) /
                  static_cast<double>(predicted_total);
    std::snprintf(buf, sizeof(buf),
                  "bytes: predicted %llu, actual %llu (%+.1f%%)\n",
                  static_cast<unsigned long long>(predicted_total),
                  static_cast<unsigned long long>(actual_total), err);
    report += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "stages: plan %.6f s, cache probe %.6f s, ghost harvest "
                "%.6f s, fan-out %.6f s, stream %.6f s\n",
                out.exec.seconds_plan, out.exec.seconds_cache_probe,
                out.exec.seconds_ghost_harvest, out.exec.seconds_fan_out,
                out.exec.seconds_stream_out);
  report += buf;
  std::snprintf(buf, sizeof(buf),
                "actual: %llu rows in %.6f s (first row %.6f s)\n",
                static_cast<unsigned long long>(out.exec.rows_emitted),
                out.exec.seconds_total, out.exec.seconds_to_first_row);
  report += buf;
  out.report = std::move(report);
  out.trace_json = trace.ToChromeJson();
  return out;
}

std::vector<ShardPrediction> PredictShards(const std::vector<Shard>& shards,
                                           const Plan& plan) {
  // The leftmost leaf shapes the scan: a (possibly region-pruned) kScan,
  // or the kPairJoin leaf -- a full pass over the assigned containers
  // plus boundary ghost traffic.
  const PlanNode* leaf = plan.root.get();
  while (leaf != nullptr && !leaf->children.empty() &&
         leaf->type != PlanNodeType::kScan &&
         leaf->type != PlanNodeType::kPairJoin) {
    leaf = leaf->children[0].get();
  }
  const PlanNode* join =
      leaf != nullptr && leaf->type == PlanNodeType::kPairJoin ? leaf
                                                               : nullptr;

  std::vector<ShardPrediction> out;
  // A mydb plan reads a personal store, not the fleet: no shard slices.
  if (leaf != nullptr && leaf->type == PlanNodeType::kMyDbScan) return out;
  out.reserve(shards.size());
  for (const Shard& shard : shards) {
    ShardPrediction p;
    p.server = shard.server;
    const auto& containers = shard.store->containers();
    auto assigned = [&shard](uint64_t raw) {
      return shard.assigned == nullptr || shard.assigned->count(raw) > 0;
    };
    if (leaf != nullptr && leaf->has_region) {
      int level = shard.store->cluster_level();
      htm::CoverResult cover = htm::Cover(leaf->region, level);
      auto add = [&](htm::HtmId id, bool full) {
        uint64_t first, last;
        id.RangeAtLevel(level, &first, &last);
        for (auto it = containers.lower_bound(first);
             it != containers.end() && it->first < last; ++it) {
          if (!assigned(it->first)) continue;
          ++p.containers;
          p.bytes_to_scan += it->second.FullBytes();
          uint64_t objs = it->second.size();
          p.max_objects += objs;
          if (full) {
            p.min_objects += objs;
            p.expected_objects += static_cast<double>(objs);
          } else {
            p.expected_objects += 0.5 * static_cast<double>(objs);
          }
        }
      };
      for (htm::HtmId id : cover.full) add(id, true);
      for (htm::HtmId id : cover.partial) add(id, false);
    } else {
      for (const auto& [raw, c] : containers) {
        if (!assigned(raw)) continue;
        ++p.containers;
        p.bytes_to_scan += c.FullBytes();
        uint64_t objs = c.size();
        p.max_objects += objs;
        p.expected_objects += static_cast<double>(objs);
      }
    }
    if (join != nullptr && shards.size() > 1) {
      // Boundary-band estimate from the density map alone: the share of
      // a container's objects within the join radius of its edge scales
      // like 3 * sep / side for a trixel ~90/2^level degrees across.
      double side_deg =
          90.0 / static_cast<double>(1u << shard.store->cluster_level());
      double frac = std::min(
          1.0, 3.0 * ArcsecToDeg(join->pair_max_sep_arcsec) / side_deg);
      p.bytes_shipped =
          static_cast<uint64_t>(frac * static_cast<double>(p.bytes_to_scan));
    }
    out.push_back(p);
  }
  return out;
}

}  // namespace sdss::query
