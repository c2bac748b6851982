#include "query/federated_engine.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <map>
#include <optional>
#include <unordered_set>
#include <utility>

#include "core/angle.h"
#include "core/random.h"
#include "htm/cover.h"
#include "query/columnar_scan.h"

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

/// Phase A of the federated neighbor join: each shard runs the join's
/// phase-1 kernel over the containers its join leaf reads and, for
/// every survivor whose separation cap (htm::ForEachTrixelNearPoint at
/// the container level) reaches a container another shard serves,
/// ships a copy of the object to that shard. Symmetric shipping is
/// what lets every shard emit exactly the pairs whose lower-id member
/// it owns: the partner of any in-radius pair is guaranteed present,
/// locally or as a ghost.
Result<std::vector<PairJoinGhosts>> HarvestJoinGhosts(
    ThreadPool* pool, const std::vector<Shard>& shards, const PlanNode* join,
    const std::atomic<bool>* cancel) {
  const size_t n = shards.size();
  std::vector<PairJoinGhosts> ghosts(n);
  if (n <= 1) return ghosts;

  ColumnarScan kernel;
  SDSS_RETURN_IF_ERROR(ColumnarScan::Compile(*join, {}, &kernel));
  double sep_deg = ArcsecToDeg(join->pair_max_sep_arcsec);
  std::vector<std::vector<std::vector<catalog::PhotoObj>>> staged(
      n, std::vector<std::vector<catalog::PhotoObj>>(n));
  std::vector<Status> errors(n);
  // One morsel per shard: each stages into its own row of `staged`.
  pool->ParallelFor(n, [&](size_t i) {
    const Shard& shard = shards[i];
    int level = shard.store->cluster_level();
    const std::vector<const catalog::Container*> containers =
        CollectScanContainers(join, shard.store);
    std::vector<size_t> dests;
    for (size_t ci = 0; ci < containers.size(); ++ci) {
      const uint64_t home = containers[ci]->trixel.raw();
      const catalog::ColumnarBlock& block = containers[ci]->columnar;
      // Seeded as the shard's executor seeds the same container.
      std::optional<Rng> rng = kernel.SampleStream(ci);
      const bool completed = kernel.Scan(
          block, rng ? &*rng : nullptr,
          [&](size_t k) {
            // Which foreign shards serve a container within the cap? A
            // cap inside its home container names only that one, which
            // this shard serves; the few that leave it look their
            // trixels up in the other shards' directories.
            dests.clear();
            htm::ForEachTrixelNearPoint(
                block.Position(k), sep_deg, level, [&](uint64_t raw2) {
                  if (raw2 == home) return;
                  for (size_t j = 0; j < n; ++j) {
                    if (j != i &&
                        shards[j].store->containers().contains(raw2) &&
                        std::find(dests.begin(), dests.end(), j) ==
                            dests.end()) {
                      dests.push_back(j);
                    }
                  }
                });
            if (dests.empty()) return true;
            const catalog::PhotoObj o = block.MaterializeObject(k);
            for (size_t d : dests) staged[i][d].push_back(o);
            return true;
          },
          [&](size_t) {
            if (cancel == nullptr ||
                !cancel->load(std::memory_order_relaxed)) {
              return true;
            }
            errors[i] = Status::Cancelled("query cancelled");
            return false;
          },
          &errors[i]);
      if (!completed) return;
    }
  });
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

/// Mixes an unordered pair of object ids into one hash (exact equality
/// still decides membership -- collisions cannot drop pairs).
struct PairKeyHash {
  size_t operator()(const std::pair<uint64_t, uint64_t>& p) const {
    uint64_t h = p.first * 0x9E3779B97F4A7C15ull;
    h ^= p.second + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    return static_cast<size_t>(h);
  }
};

/// A sink appending every row to `rows`.
std::function<bool(RowBatch&&)> AppendTo(RowBatch* rows) {
  return [rows](RowBatch&& batch) {
    rows->insert(rows->end(), std::make_move_iterator(batch.begin()),
                 std::make_move_iterator(batch.end()));
    return true;
  };
}

void AddScanCounters(const ExecStats& from, ExecStats* into) {
  into->containers_scanned += from.containers_scanned;
  into->containers_columnar += from.containers_columnar;
  into->objects_examined += from.objects_examined;
  into->objects_matched += from.objects_matched;
  into->bytes_touched += from.bytes_touched;
  into->bytes_shipped += from.bytes_shipped;
  into->pair_tests += from.pair_tests;
}

/// The engine alone would run an INTO's bare select and store nothing,
/// so a run refuses INTO unless its caller materializes the rows.
Status RefuseUnsinkedInto(const PreparedQuery& prep, const ExecContext& ctx) {
  if (prep.into().empty() || ctx.into_sink) return Status::OK();
  return Status::InvalidArgument(
      "INTO mydb." + prep.into() +
      " must run through the batch workbench; the engine alone would "
      "discard the materialization");
}

/// A personal store or a fleet of one runs the logical tree whole; only
/// a wider fleet splits it at gathers.
bool SplitsAtGathers(const PreparedQuery& prep,
                     const std::vector<Shard>& shards) {
  return !prep.mydb && shards.size() > 1;
}

/// EXPLAIN's tree: the one a run on `shards` takes.
std::string ExplainRunTree(const PreparedQuery& prep,
                           const std::vector<Shard>& shards) {
  if (!SplitsAtGathers(prep, shards)) return prep.plan.Explain();
  return prep.plan.Explain(DistributePlan(prep.plan.root).get());
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
  // Fallback: sum the distinct live stores' epochs -- the store's own
  // generation for a one-store engine. (A fleet owner injects
  // ShardedStore::Epoch instead: the stores LiveShards cuts per routing
  // start a generation of their own, so this sum would not follow the
  // archive's.)
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

Result<PreparedQuery> FederatedQueryEngine::Prepare(
    const std::string& sql, const ExecContext& ctx) const {
  auto t0 = std::chrono::steady_clock::now();
  const int plan_span = TraceBegin(ctx.trace, "plan");
  PreparedQuery prep;
  auto parsed = Parse(sql);
  if (!parsed.ok()) {
    TraceEnd(ctx.trace, plan_span);
    return parsed.status();
  }
  prep.parsed = std::move(parsed).value();
  // Planning reads the fleet for three facts only, taken under mu_
  // instead of from a copy of it; the run takes its own snapshot. The
  // planning shard is copied so its owner keeps the store alive past a
  // concurrent SetShards.
  Shard plan_shard;
  size_t num_shards = 0;
  bool tag_on_some_shard = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    num_shards = shards_.size();
    if (num_shards > 0) plan_shard = shards_[0];
    for (const Shard& shard : shards_) {
      tag_on_some_shard |= shard.store->options().build_tags;
    }
  }
  if (plan_shard.store == nullptr) {
    TraceEnd(ctx.trace, plan_span);
    return Status::FailedPrecondition("federation has no live shards");
  }
  // One plan for the whole fleet: planner decisions (tag selection,
  // spatial extraction) are store-independent, so every shard executes
  // this same tree against its own containers. The job context may bind
  // a per-user mydb namespace on top of the engine's planner options.
  PlannerOptions planner = options_.planner;
  if (ctx.mydb) planner.mydb = ctx.mydb;
  auto plan = BuildPlan(prep.parsed, *plan_shard.store, planner);
  if (!plan.ok()) {
    TraceEnd(ctx.trace, plan_span);
    return plan.status();
  }
  prep.plan = std::move(plan).value();
  bool tag_scan = false;
  ForEachLeaf(*prep.plan.root, [&](const PlanNode& leaf) {
    prep.mydb = prep.mydb || leaf.type == PlanNodeType::kMyDbScan;
    tag_scan = tag_scan || (leaf.type == PlanNodeType::kScan &&
                            leaf.table == TableRef::kTag);
  });

  // A table no live shard can serve must be a clean refusal, not a
  // silently empty result: an explicit FROM tag against a fleet whose
  // stores were built without the tag partition scans nothing.
  if (!prep.mydb && tag_scan && !tag_on_some_shard) {
    TraceEnd(ctx.trace, plan_span);
    return Status::NotFound(
        "table 'tag' exists on no live shard (fleet stores hold no tag "
        "partition)");
  }
  // A context that bypasses the cache never uses the fingerprint.
  prep.cacheable = cache_ != nullptr && !ctx.no_result_cache && !prep.mydb &&
                   ResultCache::Cacheable(prep.parsed, prep.plan);
  if (prep.cacheable) prep.fingerprint = ResultCache::Fingerprint(prep.plan);
  prep.seconds_plan = SecondsSince(t0);
  TraceNum(ctx.trace, plan_span, "shards", static_cast<double>(num_shards));
  if (prep.mydb) TraceNote(ctx.trace, plan_span, "store", "mydb");
  TraceEnd(ctx.trace, plan_span);
  return prep;
}

Result<ExecStats> FederatedQueryEngine::Run(const PreparedQuery& prep,
                                            const ExecContext& ctx,
                                            const Sink& sink) {
  return RunOn(prep, SnapshotShards(), ctx, sink);
}

Result<ExecStats> FederatedQueryEngine::RunOn(
    const PreparedQuery& prep, const std::vector<Shard>& shards,
    const ExecContext& ctx, const Sink& sink) {
  SDSS_RETURN_IF_ERROR(RefuseUnsinkedInto(prep, ctx));
  if (shards.empty()) {
    return Status::FailedPrecondition("federation has no live shards");
  }

  // Every stage clock is set here, once, whatever answers the query:
  // seconds_total spans probe + harvest + fan-out, and every row that
  // leaves the engine passes `out`, which times the caller's sink.
  const auto t0 = std::chrono::steady_clock::now();
  ExecStats stats;
  stats.seconds_plan = prep.seconds_plan;
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

  const bool cacheable =
      prep.cacheable && !ctx.no_result_cache && !ctx.into_sink;
  uint64_t epoch = 0;
  ResultCache::Answer answer;
  bool answered = false;
  if (cacheable) {
    const int probe_span = TraceBegin(ctx.trace, "cache_probe");
    epoch = CacheEpoch(shards);
    answered = cache_->TryAnswer(prep.fingerprint, prep.plan, epoch, &answer);
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
    Status run = RunPlan(prep, shards, ctx, run_sink, &stats);
    if (!run.ok()) return run;
    stats.seconds_fan_out = SecondsSince(f0) - stats.seconds_ghost_harvest;
    // Install only a clean, complete answer observed under an unchanged
    // epoch: a cancelled sink saw a prefix, and a mid-run write may have
    // leaked into the row set (the re-read guards that race).
    if (cacheable && !overflow && !stats.cancelled_early &&
        CacheEpoch(shards) == epoch) {
      cache_->Install(prep.fingerprint, prep.plan, epoch, std::move(buffer));
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
      root, sink, ghosts, ctx.cancel,
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
  }
  TraceEnd(trace, span);
  return st;
}

Status FederatedQueryEngine::RunPlan(const PreparedQuery& prep,
                                     const std::vector<Shard>& shards,
                                     const ExecContext& ctx,
                                     const Sink& sink, ExecStats* stats) {
  if (!SplitsAtGathers(prep, shards)) {
    // The logical tree runs whole on one store: a fan-out to that one
    // shard, with nothing to merge.
    return FanOut({shards[0]}, *prep.plan.root, nullptr, ctx, sink, stats);
  }
  // The coordinator's tree runs here; its gathers fan out to the fleet.
  // The split is taken now, on this run's shard count.
  const std::shared_ptr<const PlanNode> coordinator_tree =
      DistributePlan(prep.plan.root);
  const GatherSource source = [&](const PlanNode& gather,
                                  const BatchSink& emit) {
    return FanOut(shards, *gather.children[0], &gather, ctx, emit, stats);
  };
  Executor coordinator(shards[0].store, options_.executor, &pool_);
  return coordinator
      .RunTree(coordinator_tree.get(), sink, nullptr, ctx.cancel, nullptr,
               &source)
      .status();
}

Status FederatedQueryEngine::FanOut(const std::vector<Shard>& shards,
                                    const PlanNode& part,
                                    const PlanNode* gather,
                                    const ExecContext& ctx, const Sink& emit,
                                    ExecStats* stats) {
  const bool pairs = gather != nullptr && gather->gather_pairs;
  std::vector<PairJoinGhosts> ghosts;
  if (pairs) {
    // Phase A of the neighbor join: the boundary ghost exchange (its time
    // is the seconds_ghost_harvest stage). In phase B every shard emits
    // exactly the pairs whose lower-id member it serves.
    const auto t0 = std::chrono::steady_clock::now();
    const int ghost_span = TraceBegin(ctx.trace, "ghost_harvest");
    const PlanNode* join = nullptr;  // The part's one leaf.
    ForEachLeaf(part, [&join](const PlanNode& leaf) { join = &leaf; });
    auto harvested = HarvestJoinGhosts(&pool_, shards, join, ctx.cancel);
    stats->seconds_ghost_harvest += SecondsSince(t0);
    if (harvested.ok()) {
      uint64_t shipped = 0;
      for (const PairJoinGhosts& g : *harvested) shipped += g.objects.size();
      TraceNum(ctx.trace, ghost_span, "ghost_objects",
               static_cast<double>(shipped));
    }
    TraceEnd(ctx.trace, ghost_span);
    if (!harvested.ok()) return harvested.status();
    ghosts = std::move(harvested).value();
  }

  const size_t n = shards.size();
  QueryTrace* trace = ctx.trace;
  const int fan_span = TraceBegin(trace, "fan_out");
  TraceNum(trace, fan_span, "shards", static_cast<double>(n));
  // Shard spans open here, on the calling thread, so their Begin order
  // (= span index order) is deterministic whichever thread runs each
  // shard; each shard's run closes and annotates its own.
  std::vector<int> spans(n);
  for (size_t i = 0; i < n; ++i) {
    spans[i] = BeginShardSpan(trace, fan_span, i, shards[i]);
  }
  const int merge_span =
      gather != nullptr ? TraceBegin(trace, "merge", fan_span)
                        : QueryTrace::kNoSpan;
  std::vector<Result<ExecStats>> shard_stats(n, Result<ExecStats>(
                                                    ExecStats{}));
  // One morsel per shard, run on the pool or on this thread.
  const Morsel run_shard = [&](size_t i, const Sink& out) {
    shard_stats[i] = RunShard(shards[i], &part, out,
                              ghosts.empty() ? nullptr : &ghosts[i], ctx,
                              spans[i]);
  };

  uint64_t rows = 0;
  // Drops pairs already delivered by another shard's stream. The
  // emission discipline makes fleet-wide duplicates impossible by
  // construction, so this is a cheap invariant backstop, keyed on the
  // unordered pair ids.
  std::unordered_set<std::pair<uint64_t, uint64_t>, PairKeyHash> seen_pairs;
  auto deliver = [&](RowBatch&& batch) -> bool {
    if (pairs) {
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
    rows += batch.size();
    return emit(std::move(batch));
  };

  if (gather != nullptr && gather->gather_ordered) {
    // Every shard's stream is sorted and the merge needs every shard's
    // head, so each shard collects its whole output, then this thread
    // k-way merges them with the executor's sort comparator (value, then
    // obj_id tie-break).
    std::vector<RowBatch> sorted(n);
    pool_.ParallelFor(n, [&](size_t i) { run_shard(i, AppendTo(&sorted[i])); });
    std::vector<size_t> pos(n, 0);
    RowBatch out;
    const size_t batch_size = options_.executor.batch_size;
    bool more = true;
    while (more) {
      size_t best = n;
      for (size_t i = 0; i < n; ++i) {
        if (pos[i] == sorted[i].size()) continue;
        if (best == n ||
            RowBefore(sorted[i][pos[i]], sorted[best][pos[best]],
                      gather->sort_column, gather->sort_desc)) {
          best = i;
        }
      }
      if (best == n) break;
      out.push_back(std::move(sorted[best][pos[best]++]));
      if (out.size() >= batch_size) {
        more = deliver(std::move(out));
        out = RowBatch();
      }
    }
    if (more && !out.empty()) deliver(std::move(out));
  } else {
    // ASAP: shard batches reach the coordinator in arrival order, on
    // this thread; a refusal stops every shard still running.
    StreamMorsels(&pool_, n, run_shard, deliver);
  }

  TraceEnd(trace, merge_span);
  TraceNum(trace, fan_span, "rows", static_cast<double>(rows));
  TraceEnd(trace, fan_span);
  for (const auto& r : shard_stats) {
    if (!r.ok()) return r.status();
    AddScanCounters(*r, stats);
  }
  return Status::OK();
}

Result<QueryResult> FederatedQueryEngine::Execute(const std::string& sql,
                                                  const ExecContext& ctx) {
  auto prep = Prepare(sql, ctx);
  if (!prep.ok()) return prep.status();
  const std::vector<Shard> shards = SnapshotShards();
  QueryResult result;
  result.columns = prep->plan.columns;
  result.is_aggregate = prep->plan.is_aggregate;
  result.used_tag_store = prep->plan.used_tag_store;
  result.used_spatial_index = prep->plan.used_spatial_index;
  uint64_t shipped = 0;
  result.prediction = SumShards(PredictShards(shards, prep->plan), &shipped);
  auto stats = RunOn(*prep, shards, ctx, AppendTo(&result.rows));
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
  auto prep = Prepare(sql, ctx);
  if (!prep.ok()) return prep.status();
  // A refused INTO announces no header.
  SDSS_RETURN_IF_ERROR(RefuseUnsinkedInto(*prep, ctx));
  if (on_header) on_header(prep->header());
  return Run(*prep, ctx,
             [&on_batch](RowBatch&& batch) { return on_batch(batch); });
}

Result<CostEstimate> FederatedQueryEngine::EstimateCost(
    const std::string& sql, const ExecContext& ctx) {
  auto prep = Prepare(sql, ctx);
  if (!prep.ok()) return prep.status();
  return EstimateCost(*prep, ctx);
}

Result<CostEstimate> FederatedQueryEngine::EstimateCost(
    const PreparedQuery& prep, const ExecContext& ctx) {
  CostEstimate est;
  const std::vector<Shard> shards = SnapshotShards();
  const catalog::ObjectStore::Prediction total =
      SumShards(PredictShards(shards, prep.plan), &est.bytes_shipped);
  est.bytes_to_scan = total.bytes_to_scan;
  est.expected_objects = total.expected_objects;
  // Admission prices a predicted cache hit at zero scan bytes (QUICK
  // lane): the probe is non-mutating, so estimating never perturbs
  // LRU/heat state.
  est.predicted_cache_hit =
      prep.cacheable && !ctx.no_result_cache && !ctx.into_sink &&
      cache_->WouldAnswer(prep.fingerprint, prep.plan, CacheEpoch(shards));
  return est;
}

Result<std::string> FederatedQueryEngine::Explain(const std::string& sql,
                                                  const ExecContext& ctx) {
  auto prep = Prepare(sql, ctx);
  if (!prep.ok()) return prep.status();

  const std::vector<Shard> shards = SnapshotShards();
  std::string out = ExplainRunTree(*prep, shards);
  char buf[192];
  const std::vector<ShardPrediction> preds = PredictShards(shards, prep->plan);
  uint64_t shipped = 0;
  const catalog::ObjectStore::Prediction total = SumShards(preds, &shipped);
  if (prep->mydb) {
    std::snprintf(buf, sizeof(buf),
                  "personal store: mydb (no fleet fan-out)\n"
                  "prediction: %.0f objects expected, %llu bytes to scan\n",
                  total.expected_objects,
                  static_cast<unsigned long long>(total.bytes_to_scan));
    out += buf;
    return out;
  }
  std::snprintf(buf, sizeof(buf), "federation: %zu live shards\n",
                shards.size());
  out += buf;
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
  }
  std::snprintf(buf, sizeof(buf),
                "prediction: %.0f objects expected [%llu, %llu], %llu bytes "
                "to scan\n",
                total.expected_objects,
                static_cast<unsigned long long>(total.min_objects),
                static_cast<unsigned long long>(total.max_objects),
                static_cast<unsigned long long>(total.bytes_to_scan));
  out += buf;
  if (shipped > 0) {
    std::snprintf(buf, sizeof(buf),
                  "network: %llu bytes shipped between shards (est)\n",
                  static_cast<unsigned long long>(shipped));
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

  auto prep = Prepare(StripExplainAnalyze(sql), run_ctx);
  if (!prep.ok()) return prep.status();
  const std::vector<Shard> shards = SnapshotShards();
  ExplainAnalysis out;
  std::vector<ShardPrediction> preds;
  std::string report = ExplainRunTree(*prep, shards);
  char buf[224];
  if (prep->mydb) {
    report += "personal store: mydb (no fleet fan-out)\n";
  } else {
    preds = PredictShards(shards, prep->plan);
    std::snprintf(buf, sizeof(buf),
                  "federation: %zu live shards (analyzed run, result "
                  "cache bypassed)\n",
                  shards.size());
    report += buf;
  }
  auto stats = RunOn(*prep, shards, run_ctx, [](RowBatch&&) { return true; });
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

double JoinBandFraction(double sep_arcsec, int level) {
  const double side_deg = 90.0 / static_cast<double>(1u << level);
  return std::min(1.0, 3.0 * ArcsecToDeg(sep_arcsec) / side_deg);
}

std::vector<ShardPrediction> PredictShards(const std::vector<Shard>& shards,
                                           const Plan& plan) {
  // Every leaf is a scan: a (possibly region-pruned) kScan or kMyDbScan,
  // or a kPairJoin -- a pass over its containers plus boundary ghost
  // traffic.
  std::vector<const PlanNode*> leaves;
  bool personal = false;
  ForEachLeaf(*plan.root, [&](const PlanNode& leaf) {
    leaves.push_back(&leaf);
    personal = personal || leaf.type == PlanNodeType::kMyDbScan;
  });
  const bool ghosts = !personal && shards.size() > 1;
  // Each leaf's cover per cluster level, computed once for every store
  // at that level.
  std::vector<std::map<int, htm::CoverResult>> covers(leaves.size());
  // Adds leaf `li` read over `store` into `p`.
  auto predict = [&](size_t li, const catalog::ObjectStore& store,
                     ShardPrediction* p) {
    const PlanNode& leaf = *leaves[li];
    const uint64_t bytes_before = p->bytes_to_scan;
    auto add = [&](const auto& entry, bool full) {
      ++p->containers;
      p->Add(entry.second, full);
    };
    const int level = store.cluster_level();
    if (leaf.has_region) {
      auto cached = covers[li].find(level);
      if (cached == covers[li].end()) {
        cached =
            covers[li].emplace(level, htm::Cover(leaf.region, level)).first;
      }
      htm::ForEachInCover(cached->second, level, store.containers(), add);
    } else {
      for (const auto& entry : store.containers()) add(entry, true);
    }
    if (ghosts && leaf.type == PlanNodeType::kPairJoin) {
      p->bytes_shipped += static_cast<uint64_t>(
          JoinBandFraction(leaf.pair_max_sep_arcsec, level) *
          static_cast<double>(p->bytes_to_scan - bytes_before));
    }
  };
  std::vector<ShardPrediction> out;
  if (personal) {
    // BuildPlan never mixes mydb and fleet leaves.
    out.emplace_back();
    for (size_t li = 0; li < leaves.size(); ++li) {
      predict(li, *leaves[li]->mydb_store, &out.back());
    }
    return out;
  }
  out.reserve(shards.size());
  for (const Shard& shard : shards) {
    ShardPrediction p;
    p.server = shard.server;
    for (size_t li = 0; li < leaves.size(); ++li) {
      predict(li, *shard.store, &p);
    }
    out.push_back(p);
  }
  return out;
}

catalog::ObjectStore::Prediction SumShards(
    const std::vector<ShardPrediction>& slices, uint64_t* shipped) {
  catalog::ObjectStore::Prediction total;
  *shipped = 0;
  for (const ShardPrediction& p : slices) {
    total.expected_objects += p.expected_objects;
    total.min_objects += p.min_objects;
    total.max_objects += p.max_objects;
    total.bytes_to_scan += p.bytes_to_scan;
    *shipped += p.bytes_shipped;
  }
  return total;
}

}  // namespace sdss::query
