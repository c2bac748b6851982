#include "query/executor.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <mutex>
#include <unordered_set>

#include "catalog/photo_obj.h"
#include "core/random.h"
#include "dataflow/pair_hasher.h"
#include "query/columnar_scan.h"

namespace sdss::query {
namespace {

using catalog::Container;
using catalog::GetAttribute;
using catalog::PhotoObj;

/// One morsel's scan counters: kept locally while the morsel runs and
/// added to the query's totals once when it ends, never per object.
struct ScanTally {
  uint64_t containers_scanned = 0;
  uint64_t containers_columnar = 0;
  uint64_t objects_examined = 0;
  uint64_t objects_matched = 0;
  uint64_t bytes_touched = 0;

  void Add(const ScanTally& t) {
    containers_scanned += t.containers_scanned;
    containers_columnar += t.containers_columnar;
    objects_examined += t.objects_examined;
    objects_matched += t.objects_matched;
    bytes_touched += t.bytes_touched;
  }
};

/// Shared run state: error propagation, cooperative cancellation, and
/// scan counters.
struct RunContext {
  std::mutex mu;
  Status first_error;  ///< Under mu.
  ScanTally totals;    ///< Under mu: every ended morsel's tally.
  std::atomic<bool> failed{false};  ///< Lock-free mirror of first_error.
  /// The job's cancel flag (null = not cancellable). Checked inside the
  /// scan and join loops so a long-running query releases the pool
  /// within one object/pair step of the flag being raised.
  const std::atomic<bool>* cancel = nullptr;
  /// Heat feedback: non-null when the caller wants to see every archive
  /// container the tree reads (thread-safe; personal stores excluded).
  const AccessRecorder* access = nullptr;
  uint64_t bytes_shipped = 0;  ///< Set by the pair join's own thread.

  void ReportError(const Status& s) {
    std::lock_guard<std::mutex> lock(mu);
    if (first_error.ok()) first_error = s;
    failed.store(true, std::memory_order_relaxed);
  }
  bool has_error() const { return failed.load(std::memory_order_relaxed); }
  void RecordContainerAccess(const Container* c) {
    if (access != nullptr && *access) (*access)(c->trixel.raw());
  }
  /// True once the cancel flag is raised; records the Cancelled status
  /// (first error wins) so the tree unwinds like any scan failure.
  bool Cancelled() {
    if (cancel == nullptr || !cancel->load(std::memory_order_relaxed)) {
      return false;
    }
    ReportError(Status::Cancelled("query cancelled"));
    return true;
  }
  /// True when scan work must not start or go on: the job was
  /// cancelled or some node failed.
  bool Halted() { return Cancelled() || has_error(); }
  void Add(const ScanTally& t) {
    std::lock_guard<std::mutex> lock(mu);
    totals.Add(t);
  }
};

// Evaluates a pair-join predicate under the assignment (a = x, b = y).
Result<bool> PairHolds(const PlanNode* node, const PhotoObj& x,
                       const PhotoObj& y) {
  if (!node->pair_where) return true;
  RowAccessor acc{
      [node, &x, &y](const std::string& n) -> Result<double> {
        std::string alias, attr;
        if (SplitQualifiedName(n, &alias, &attr)) {
          if (alias == node->pair_alias_a) return GetAttribute(x, attr);
          if (alias == node->pair_alias_b) return GetAttribute(y, attr);
        }
        return Status::NotFound("unresolvable pair attribute: " + n);
      },
      x.pos};
  return node->pair_where->EvalBool(acc);
}

// Projects one joined pair under its bound assignment (a, b) into `row`.
bool ProjectPairInto(const PlanNode* node, const PhotoObj& a,
                     const PhotoObj& b, double sep_arcsec, RunContext* ctx,
                     ResultRow* row) {
  row->obj_id = a.obj_id;
  row->obj_id_b = b.obj_id;
  row->values.clear();
  row->values.reserve(node->projection.size());
  for (const std::string& name : node->projection) {
    if (name == "sep") {
      row->values.push_back(sep_arcsec);
      continue;
    }
    std::string alias, attr;
    if (!SplitQualifiedName(name, &alias, &attr)) {
      ctx->ReportError(
          Status::Internal("unqualified join projection: " + name));
      return false;
    }
    const PhotoObj& src = alias == node->pair_alias_a ? a : b;
    auto v = GetAttribute(src, attr);
    if (!v.ok()) {
      ctx->ReportError(v.status());
      return false;
    }
    row->values.push_back(*v);
  }
  return true;
}

/// Runs one plan tree on the thread that calls Run. Streaming and
/// blocking nodes are plain code over their child's batch stream; only
/// scan-shaped work (scan leaves, aggregate pushdown, both pair-join
/// phases) fans out, as morsels on the shared pool.
class TreeRunner {
 public:
  TreeRunner(const catalog::ObjectStore* store,
             const Executor::Options& options, ThreadPool* pool,
             RunContext* ctx,
             const std::unordered_set<uint64_t>* container_filter,
             const PairJoinGhosts* join_ghosts,
             const GatherSource* gather_source)
      : store_(store),
        options_(options),
        pool_(pool),
        ctx_(ctx),
        filter_(container_filter),
        ghosts_(join_ghosts),
        gather_(gather_source) {}

  /// Runs `node`, handing each output batch to `emit` on this thread.
  /// Returns false when the stream ended early -- `emit` refused a batch
  /// or a blocking node's input failed -- so the caller abandons its
  /// remaining upstream work. Failures themselves live in the run
  /// context, which every morsel checks before doing work.
  bool Run(const PlanNode* node, const BatchSink& emit) {
    switch (node->type) {
      case PlanNodeType::kScan:
      case PlanNodeType::kMyDbScan:
        return Scan(node, emit);
      case PlanNodeType::kPairJoin:
        return PairJoin(node, emit);
      case PlanNodeType::kUnion: {
        // Left branch, then right, deduplicated by obj_id as batches
        // stream through.
        std::unordered_set<uint64_t> seen;
        const BatchSink dedupe = [&](RowBatch&& batch) {
          RowBatch unique;
          for (ResultRow& r : batch) {
            if (seen.insert(r.obj_id).second) unique.push_back(std::move(r));
          }
          return unique.empty() || emit(std::move(unique));
        };
        for (const auto& child : node->children) {
          if (!Run(child.get(), dedupe)) return false;
        }
        return true;
      }
      case PlanNodeType::kIntersect:
      case PlanNodeType::kDifference: {
        // Build side: drain the right child completely first ("at least
        // one of the child nodes must be complete").
        std::unordered_set<uint64_t> right_ids;
        Run(node->children[1].get(), [&right_ids](RowBatch&& batch) {
          for (const ResultRow& r : batch) right_ids.insert(r.obj_id);
          return true;
        });
        if (ctx_->has_error()) return false;
        // Probe side: stream the left child.
        const bool keep_if_present = node->type == PlanNodeType::kIntersect;
        std::unordered_set<uint64_t> emitted;
        return Run(node->children[0].get(), [&](RowBatch&& batch) {
          RowBatch keep;
          for (ResultRow& r : batch) {
            const bool present = right_ids.count(r.obj_id) > 0;
            if (present == keep_if_present &&
                emitted.insert(r.obj_id).second) {
              keep.push_back(std::move(r));
            }
          }
          return keep.empty() || emit(std::move(keep));
        });
      }
      case PlanNodeType::kSort: {
        RowBatch all;
        Run(node->children[0].get(), [&all](RowBatch&& batch) {
          all.insert(all.end(), std::make_move_iterator(batch.begin()),
                     std::make_move_iterator(batch.end()));
          return true;
        });
        if (ctx_->has_error()) return false;
        const size_t col = node->sort_column;
        const bool desc = node->sort_desc;
        std::sort(all.begin(), all.end(),
                  [col, desc](const ResultRow& a, const ResultRow& b) {
                    return RowBefore(a, b, col, desc);
                  });
        return EmitRows(std::move(all), options_.batch_size, emit);
      }
      case PlanNodeType::kLimit: {
        const PlanNode* child = node->children[0].get();
        if (child->type == PlanNodeType::kSort && node->limit >= 0) {
          return TopK(node, child, emit);
        }
        int64_t remaining = node->limit;
        if (remaining <= 0) return true;
        bool more = true;
        Run(child, [&](RowBatch&& batch) {
          if (static_cast<int64_t>(batch.size()) > remaining) {
            batch.resize(static_cast<size_t>(remaining));
          }
          remaining -= static_cast<int64_t>(batch.size());
          more = emit(std::move(batch));
          return more && remaining > 0;  // Early-out: abandon upstream.
        });
        return more;
      }
      case PlanNodeType::kAggregate: {
        const PlanNode* child = node->children[0].get();
        if (child->type == PlanNodeType::kScan ||
            child->type == PlanNodeType::kMyDbScan) {
          return AggregatePushdown(node, child, emit);
        }
        // Over a gather of shard partials, the input rows are
        // {count, sum, min, max} states to combine, not values.
        const bool partials = child->type == PlanNodeType::kGather &&
                              child->children[0]->agg_partial;
        AggFold fold;
        Run(child, [&fold, partials](RowBatch&& batch) {
          for (const ResultRow& r : batch) {
            if (partials) {
              AggFold part;
              part.count = static_cast<uint64_t>(r.values[0]);
              part.sum = r.values[1];
              part.min_v = r.values[2];
              part.max_v = r.values[3];
              fold.Merge(part);
              continue;
            }
            ++fold.count;
            if (!r.values.empty()) fold.Add(r.values[0]);
          }
          return true;
        });
        if (ctx_->has_error()) return false;
        return emit({FinishAggregate(node->agg, node->agg_partial, fold)});
      }
      case PlanNodeType::kGather: {
        if (gather_ == nullptr) {
          ctx_->ReportError(
              Status::Internal("GATHER node without a gather source"));
          return false;
        }
        bool more = true;
        const Status gathered = (*gather_)(*node, [&](RowBatch&& batch) {
          more = emit(std::move(batch));
          return more;
        });
        if (!gathered.ok()) {
          ctx_->ReportError(gathered);
          return false;
        }
        return more;
      }
    }
    return true;
  }

 private:
  /// A scan, mydb-scan or pair-join leaf ready to run.
  struct Leaf {
    const PlanNode* node = nullptr;
    std::vector<const Container*> containers;
    ColumnarScan kernel;
    bool personal = false;  ///< A mydb leaf: no access recording.
    bool tag = false;       ///< Reads the tag partition.
    bool empty = false;     ///< A tag leaf over a store keeping none.
  };

  /// Collects `scan`'s containers -- a mydb leaf reads its own
  /// (personal, unsharded) store, to which the shard assignment never
  /// applies -- and compiles its kernel. Returns false (error reported)
  /// when compilation fails.
  bool Prepare(const PlanNode* scan, Leaf* leaf) {
    leaf->node = scan;
    leaf->personal = scan->type == PlanNodeType::kMyDbScan;
    const catalog::ObjectStore* store =
        leaf->personal ? scan->mydb_store.get() : store_;
    leaf->containers = CollectScanContainers(
        scan, store, leaf->personal ? nullptr : filter_);
    leaf->tag = scan->table == TableRef::kTag;
    leaf->empty = leaf->tag && !store->options().build_tags;
    // A pair join's projection names pair columns; its kernel only
    // filters (phase 1).
    Status compiled = ColumnarScan::Compile(
        *scan,
        scan->type == PlanNodeType::kPairJoin ? std::vector<std::string>{}
                                              : scan->projection,
        &leaf->kernel);
    if (!compiled.ok()) ctx_->ReportError(compiled);
    return compiled.ok();
  }

  /// Scans container `ci` of `leaf` with its compiled kernel -- THE
  /// definition of which objects the leaf yields, shared by the
  /// row-emitting scan, the aggregate pushdown and the pair join's
  /// phase 1 so they can never diverge. Calls `on_match(i)` for every
  /// surviving row of the container's column block; returns false when
  /// the morsel must abort.
  template <typename OnMatch>
  bool ScanContainer(const Leaf& leaf, size_t ci, ScanTally* tally,
                     const OnMatch& on_match) {
    const Container* c = leaf.containers[ci];
    if (!leaf.personal) ctx_->RecordContainerAccess(c);
    // Seeded by container INDEX, not claim order: the same query
    // samples the same objects on every run, whichever thread runs the
    // morsel.
    Rng rng(leaf.node->sample_seed + ci * 7919);
    ++tally->containers_scanned;
    ++tally->containers_columnar;
    if (leaf.empty) return true;
    tally->bytes_touched += leaf.tag ? c->TagBytes() : c->FullBytes();
    Status error;
    const bool completed = leaf.kernel.Scan(
        c->columnar, &rng, on_match,
        [&](size_t examined) {
          if (ctx_->Halted()) return false;
          tally->objects_examined += examined;
          return true;
        },
        &error);
    if (!error.ok()) ctx_->ReportError(error);
    return completed;
  }

  /// Scan leaf: one morsel per container, streamed through the exchange.
  bool Scan(const PlanNode* node, const BatchSink& emit) {
    Leaf leaf;
    if (!Prepare(node, &leaf)) return false;
    const size_t batch_size = options_.batch_size;
    const Morsel morsel = [&](size_t ci, const BatchSink& out) {
      if (ctx_->Halted()) return;
      const Container* c = leaf.containers[ci];
      ScanTally tally;
      RowBatch batch;
      batch.reserve(batch_size);
      ResultRow row;
      const bool completed = ScanContainer(leaf, ci, &tally, [&](size_t i) {
        leaf.kernel.ProjectRow(c->columnar, i, &row);
        ++tally.objects_matched;
        batch.push_back(row);
        if (batch.size() < batch_size) return true;
        const bool more = out(std::move(batch));
        batch.clear();
        batch.reserve(batch_size);
        return more;
      });
      ctx_->Add(tally);
      if (completed && !batch.empty()) out(std::move(batch));
    };
    return StreamMorsels(pool_, leaf.containers.size(), morsel, emit);
  }

  /// Aggregate pushdown: the fold runs inside the container morsels, so
  /// no rows are materialized and an aggregate costs exactly one pass
  /// over the (pruned) containers.
  bool AggregatePushdown(const PlanNode* node, const PlanNode* scan,
                         const BatchSink& emit) {
    Leaf leaf;
    if (!Prepare(scan, &leaf)) return false;
    const bool has_input = !scan->projection.empty();
    std::mutex fold_mu;
    AggFold total;
    pool_->ParallelFor(leaf.containers.size(), [&](size_t ci) {
      if (ctx_->Halted()) return;
      const Container* c = leaf.containers[ci];
      ScanTally tally;
      AggFold local;
      const bool completed = ScanContainer(leaf, ci, &tally, [&](size_t i) {
        if (has_input) local.Add(leaf.kernel.Value(c->columnar, i));
        ++local.count;
        return true;
      });
      if (completed) tally.objects_matched = local.count;
      ctx_->Add(tally);
      if (!completed) return;
      std::lock_guard<std::mutex> lock(fold_mu);
      total.Merge(local);
    });
    if (ctx_->has_error()) return false;
    return emit({FinishAggregate(node->agg, node->agg_partial, total)});
  }

  /// The shard-local spatial hash join: phase 1 runs the join's filter
  /// over the (assigned) containers with the scan kernel and hashes the
  /// survivors into a PairHasher -- plus any boundary ghosts the
  /// federated engine shipped here -- and phase 2 compares buckets as
  /// morsels, binding each qualifying pair to its satisfying (a, b)
  /// assignment before projection.
  bool PairJoin(const PlanNode* node, const BatchSink& emit) {
    Leaf leaf;
    if (!Prepare(node, &leaf)) return false;
    dataflow::PairHasher hasher(node->pair_max_sep_arcsec,
                                node->pair_bucket_level);
    // Phase-1 survivors decoded once, one slot per container: the join
    // owns them for the query and the hasher points into them.
    std::vector<std::vector<PhotoObj>> survivors(leaf.containers.size());
    std::mutex hash_mu;
    pool_->ParallelFor(leaf.containers.size(), [&](size_t ci) {
      if (ctx_->Halted()) return;
      const catalog::ColumnarBlock& block = leaf.containers[ci]->columnar;
      std::vector<PhotoObj>& objs = survivors[ci];
      ScanTally tally;
      const bool completed = ScanContainer(leaf, ci, &tally, [&](size_t i) {
        objs.push_back(block.MaterializeObject(i));
        return true;
      });
      ctx_->Add(tally);
      if (!completed) return;
      // Covers outside the lock; insert under it.
      std::vector<dataflow::PairHasher::BucketSet> buckets;
      buckets.reserve(objs.size());
      for (const PhotoObj& o : objs) {
        buckets.push_back(hasher.ComputeBuckets(o));
      }
      std::lock_guard<std::mutex> lock(hash_mu);
      for (size_t k = 0; k < objs.size(); ++k) {
        hasher.AddComputed(&objs[k], buckets[k]);
      }
    });
    if (ghosts_ != nullptr && !ctx_->has_error()) {
      ctx_->bytes_shipped += ghosts_->objects.size() * sizeof(PhotoObj);
      for (const PhotoObj& g : ghosts_->objects) hasher.Add(&g, false);
    }
    if (ctx_->has_error()) return false;

    const std::vector<const dataflow::PairHasher::Bucket*> buckets =
        hasher.BucketList();
    const size_t batch_size = options_.batch_size;
    const Morsel morsel = [&](size_t bi, const BatchSink& out) {
      if (ctx_->Halted()) return;
      ScanTally tally;
      RowBatch batch;
      batch.reserve(batch_size);
      ResultRow row;
      hasher.ForEachCandidatePair(
          *buckets[bi],
          [&](const PhotoObj& lo, const PhotoObj& hi, double sep_arcsec) {
            if (ctx_->Cancelled()) return false;
            auto fwd = PairHolds(node, lo, hi);
            if (!fwd.ok()) {
              ctx_->ReportError(fwd.status());
              return false;
            }
            const PhotoObj* a = &lo;
            const PhotoObj* b = &hi;
            if (!*fwd) {
              auto rev = PairHolds(node, hi, lo);
              if (!rev.ok()) {
                ctx_->ReportError(rev.status());
                return false;
              }
              if (!*rev) return true;
              a = &hi;
              b = &lo;
            }
            if (!ProjectPairInto(node, *a, *b, sep_arcsec, ctx_, &row)) {
              return false;
            }
            ++tally.objects_matched;
            batch.push_back(row);
            if (batch.size() < batch_size) return true;
            const bool more = out(std::move(batch));
            batch.clear();
            batch.reserve(batch_size);
            return more;
          });
      ctx_->Add(tally);
      if (!batch.empty() && !ctx_->has_error()) out(std::move(batch));
    };
    return StreamMorsels(pool_, buckets.size(), morsel, emit);
  }

  /// Top-k fusion: LIMIT over SORT keeps a bounded heap of the k best
  /// rows instead of materializing and sorting the full input -- O(N + k
  /// log k) comparisons and O(k) live rows.
  bool TopK(const PlanNode* limit, const PlanNode* sort,
            const BatchSink& emit) {
    const size_t k = static_cast<size_t>(limit->limit);
    if (k == 0) return true;
    const size_t col = sort->sort_column;
    const bool desc = sort->sort_desc;
    auto before = [col, desc](const ResultRow& a, const ResultRow& b) {
      return RowBefore(a, b, col, desc);
    };
    // Max-heap under `before`: front = worst kept row.
    RowBatch heap;
    heap.reserve(std::min<size_t>(k, 4096));
    Run(sort->children[0].get(), [&](RowBatch&& batch) {
      for (ResultRow& r : batch) {
        if (heap.size() < k) {
          heap.push_back(std::move(r));
          std::push_heap(heap.begin(), heap.end(), before);
        } else if (before(r, heap.front())) {
          std::pop_heap(heap.begin(), heap.end(), before);
          heap.back() = std::move(r);
          std::push_heap(heap.begin(), heap.end(), before);
        }
      }
      return true;
    });
    if (ctx_->has_error()) return false;
    std::sort_heap(heap.begin(), heap.end(), before);
    return EmitRows(std::move(heap), options_.batch_size, emit);
  }

  const catalog::ObjectStore* store_;
  const Executor::Options& options_;
  ThreadPool* pool_;
  RunContext* ctx_;
  const std::unordered_set<uint64_t>* filter_;
  const PairJoinGhosts* ghosts_;
  const GatherSource* gather_;
};

}  // namespace

std::vector<const catalog::Container*> CollectScanContainers(
    const PlanNode* node, const catalog::ObjectStore* store,
    const std::unordered_set<uint64_t>* container_filter) {
  std::vector<const catalog::Container*> containers;
  auto assigned = [container_filter](uint64_t raw) {
    return container_filter == nullptr || container_filter->count(raw) > 0;
  };
  if (node->has_region) {
    htm::CoverResult cover = htm::Cover(node->region,
                                        store->cluster_level());
    auto add_range = [&](htm::HtmId id) {
      uint64_t first, last;
      id.RangeAtLevel(store->cluster_level(), &first, &last);
      const auto& all = store->containers();
      for (auto it = all.lower_bound(first);
           it != all.end() && it->first < last; ++it) {
        if (assigned(it->first)) containers.push_back(&it->second);
      }
    };
    for (htm::HtmId id : cover.full) add_range(id);
    for (htm::HtmId id : cover.partial) add_range(id);
  } else {
    for (const auto& [raw, c] : store->containers()) {
      if (assigned(raw)) containers.push_back(&c);
    }
  }
  return containers;
}

ResultRow FinishAggregate(AggFunc agg, bool partial, const AggFold& f) {
  ResultRow result;
  result.obj_id = 0;
  if (partial) {
    result.values = {static_cast<double>(f.count), f.sum, f.min_v,
                     f.max_v};
    return result;
  }
  switch (agg) {
    case AggFunc::kCount:
      result.values.push_back(static_cast<double>(f.count));
      break;
    case AggFunc::kSum:
      result.values.push_back(f.sum);
      break;
    case AggFunc::kAvg:
      result.values.push_back(
          f.count ? f.sum / static_cast<double>(f.count) : 0.0);
      break;
    case AggFunc::kMin:
      result.values.push_back(f.count ? f.min_v : 0.0);
      break;
    case AggFunc::kMax:
      result.values.push_back(f.count ? f.max_v : 0.0);
      break;
    case AggFunc::kNone:
      break;
  }
  return result;
}

bool EmitRows(RowBatch&& rows, size_t batch_size, const BatchSink& sink) {
  for (size_t i = 0; i < rows.size(); i += batch_size) {
    const size_t end = std::min(i + batch_size, rows.size());
    RowBatch batch(std::make_move_iterator(rows.begin() + i),
                   std::make_move_iterator(rows.begin() + end));
    if (!sink(std::move(batch))) return false;
  }
  return true;
}

Result<ExecStats> Executor::RunTree(
    const PlanNode* root, const std::function<bool(RowBatch&&)>& on_batch,
    const std::unordered_set<uint64_t>* container_filter,
    const PairJoinGhosts* join_ghosts, const std::atomic<bool>* cancel,
    const AccessRecorder* access_recorder,
    const GatherSource* gather_source) {
  if (root == nullptr) return Status::InvalidArgument("empty plan");

  RunContext ctx;
  ctx.cancel = cancel;
  ctx.access = access_recorder;
  TreeRunner runner(store_, options_, pool_, &ctx, container_filter,
                    join_ghosts, gather_source);

  const auto t0 = std::chrono::steady_clock::now();
  ExecStats stats;
  bool first = true;
  runner.Run(root, [&](RowBatch&& batch) {
    if (first && !batch.empty()) {
      stats.seconds_to_first_row =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        t0)
              .count();
      first = false;
    }
    stats.rows_emitted += batch.size();
    if (on_batch(std::move(batch))) return true;
    stats.cancelled_early = true;
    return false;
  });

  stats.seconds_total = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
  if (first) stats.seconds_to_first_row = stats.seconds_total;
  stats.bytes_shipped = ctx.bytes_shipped;
  std::lock_guard<std::mutex> lock(ctx.mu);
  if (!ctx.first_error.ok()) return ctx.first_error;
  stats.containers_scanned = ctx.totals.containers_scanned;
  stats.containers_columnar = ctx.totals.containers_columnar;
  stats.objects_examined = ctx.totals.objects_examined;
  stats.objects_matched = ctx.totals.objects_matched;
  stats.bytes_touched = ctx.totals.bytes_touched;
  return stats;
}

}  // namespace sdss::query
