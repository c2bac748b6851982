#include "query/executor.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "catalog/photo_obj.h"
#include "core/random.h"
#include "dataflow/pair_hasher.h"
#include "query/columnar_scan.h"

namespace sdss::query {
namespace {

using catalog::Container;
using catalog::GetAttribute;
using catalog::GetTagAttribute;
using catalog::PhotoObj;
using catalog::TagObj;

/// Shared run state: error propagation, cooperative cancellation, and
/// scan counters.
struct RunContext {
  std::mutex mu;
  Status first_error;
  /// The job's cancel flag (null = not cancellable). Checked inside the
  /// scan and join loops so a long-running query releases its threads
  /// within one object/pair step of the flag being raised.
  const std::atomic<bool>* cancel = nullptr;
  /// Heat feedback: non-null when the caller wants to see every archive
  /// container the tree reads (thread-safe; personal stores excluded).
  const AccessRecorder* access = nullptr;
  std::atomic<uint64_t> containers_scanned{0};
  std::atomic<uint64_t> containers_columnar{0};
  std::atomic<uint64_t> objects_examined{0};
  std::atomic<uint64_t> objects_matched{0};
  std::atomic<uint64_t> bytes_touched{0};
  std::atomic<uint64_t> bytes_shipped{0};

  void ReportError(const Status& s) {
    std::lock_guard<std::mutex> lock(mu);
    if (first_error.ok()) first_error = s;
  }
  bool has_error() {
    std::lock_guard<std::mutex> lock(mu);
    return !first_error.ok();
  }
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
};

/// Everything a running node tree needs to tear down: channels to cancel
/// and threads to join.
struct NodeRuntime {
  ThreadGroup threads;
  std::vector<std::shared_ptr<RowChannel>> channels;

  void CancelAll() {
    for (auto& ch : channels) ch->Cancel();
  }
};

// Projects one photo object into a row. Returns false (and reports) on
// evaluation error.
bool ProjectInto(const PhotoObj& o,
                 const std::vector<std::string>& projection,
                 RunContext* ctx, ResultRow* row) {
  row->obj_id = o.obj_id;
  row->pos = o.pos;
  row->values.clear();
  row->values.reserve(projection.size());
  for (const std::string& name : projection) {
    auto v = GetAttribute(o, name);
    if (!v.ok()) {
      ctx->ReportError(v.status());
      return false;
    }
    row->values.push_back(*v);
  }
  return true;
}

bool ProjectInto(const TagObj& t,
                 const std::vector<std::string>& projection,
                 RunContext* ctx, ResultRow* row) {
  row->obj_id = t.obj_id;
  row->pos = t.Position();
  row->values.clear();
  row->values.reserve(projection.size());
  for (const std::string& name : projection) {
    auto v = GetTagAttribute(t, name);
    if (!v.ok()) {
      ctx->ReportError(v.status());
      return false;
    }
    row->values.push_back(*v);
  }
  return true;
}

Result<double> GetAnyAttribute(const PhotoObj& o, const std::string& n) {
  return GetAttribute(o, n);
}
Result<double> GetAnyAttribute(const TagObj& t, const std::string& n) {
  return GetTagAttribute(t, n);
}
Vec3 PositionOf(const PhotoObj& o) { return o.pos; }
Vec3 PositionOf(const TagObj& t) { return t.Position(); }

// Walks one container's rows (tag or photo) applying sampling and the
// predicate -- THE definition of which objects a scan leaf yields, shared
// by the row-emitting scan and the aggregate pushdown so the two can
// never diverge. Calls `on_match` for every surviving object; returns
// false when the task must abort (error reported, or on_match said stop).
template <typename T, typename OnMatch>
bool VisitMatches(const std::vector<T>& rows, const PlanNode* node,
                  Rng* rng, RunContext* ctx, const OnMatch& on_match) {
  for (const T& obj : rows) {
    if (ctx->Cancelled()) return false;
    ctx->objects_examined.fetch_add(1);
    if (node->sample < 1.0 && !rng->Bernoulli(node->sample)) continue;
    if (node->predicate) {
      RowAccessor acc{
          [&obj](const std::string& n) { return GetAnyAttribute(obj, n); },
          PositionOf(obj)};
      auto ok = node->predicate->EvalBool(acc);
      if (!ok.ok()) {
        ctx->ReportError(ok.status());
        return false;
      }
      if (!*ok) continue;
    }
    if (!on_match(obj)) return false;
  }
  return true;
}

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

// The containers a scan leaf must visit: pruned by the HTM cover when the
// node carries a region, restricted to the shard assignment when
// federated.
std::vector<const Container*> CollectScanContainers(
    const PlanNode* node, const catalog::ObjectStore* store,
    const std::unordered_set<uint64_t>* container_filter) {
  std::vector<const Container*> containers;
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

}  // namespace

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

Executor::Executor(const catalog::ObjectStore* store, Options options,
                   ThreadPool* shared_pool)
    : store_(store), options_(options) {
  if (shared_pool != nullptr) {
    pool_ = shared_pool;
  } else {
    owned_pool_ = std::make_unique<ThreadPool>(options.scan_threads);
    pool_ = owned_pool_.get();
  }
}

Result<ExecStats> Executor::RunTree(
    const PlanNode* root, const std::function<bool(RowBatch&&)>& on_batch,
    const std::unordered_set<uint64_t>* container_filter,
    const PairJoinGhosts* join_ghosts, const std::atomic<bool>* cancel,
    const AccessRecorder* access_recorder) {
  if (root == nullptr) return Status::InvalidArgument("empty plan");

  auto ctx = std::make_shared<RunContext>();
  ctx->cancel = cancel;
  ctx->access = access_recorder;
  NodeRuntime runtime;

  // Recursive node launcher. Each call wires `node` to write into `out`.
  std::function<void(const PlanNode*, std::shared_ptr<RowChannel>)> start =
      [&](const PlanNode* node, std::shared_ptr<RowChannel> out) {
        out->AddWriter();
        switch (node->type) {
          case PlanNodeType::kScan:
          case PlanNodeType::kMyDbScan: {
            // A mydb leaf scans its own (personal, unsharded) store: the
            // federated container assignment never applies to it.
            const bool personal = node->type == PlanNodeType::kMyDbScan;
            const catalog::ObjectStore* scan_store =
                personal ? node->mydb_store : store_;
            const auto* filter = personal ? nullptr : container_filter;
            runtime.threads.Spawn([this, node, out, ctx, scan_store,
                                   filter] {
              std::vector<const Container*> containers =
                  CollectScanContainers(node, scan_store, filter);
              // Compile the leaf once; containers without column views
              // (and leaves the kernel rejects) take the row path.
              ColumnarScan kernel;
              const bool kernel_ok =
                  options_.columnar_kernel && node->columnar_eligible &&
                  ColumnarScan::Compile(*node, node->projection, &kernel);
              pool_->ParallelFor(containers.size(), [&](size_t ci) {
                if (out->cancelled() || ctx->Cancelled() ||
                    ctx->has_error()) {
                  return;
                }
                const Container* c = containers[ci];
                ctx->containers_scanned.fetch_add(1);
                if (node->type != PlanNodeType::kMyDbScan) {
                  ctx->RecordContainerAccess(c);
                }
                // Seeded by container INDEX, not task-claim order: the
                // same query samples the same objects on every run and
                // on every execution path (row or columnar kernel),
                // whatever the pool's scheduling did.
                Rng rng(node->sample_seed + ci * 7919);
                RowBatch batch;
                batch.reserve(options_.batch_size);
                ResultRow row;

                // Projects the matched object into `row`, then appends
                // it, pushing full batches downstream.
                auto emit = [&](const auto& obj) {
                  if (!ProjectInto(obj, node->projection, ctx.get(),
                                   &row)) {
                    return false;
                  }
                  ctx->objects_matched.fetch_add(1);
                  batch.push_back(row);
                  if (batch.size() >= options_.batch_size) {
                    if (!out->Push(std::move(batch))) return false;
                    batch.clear();
                    batch.reserve(options_.batch_size);
                  }
                  return true;
                };

                bool completed;
                if (node->table == TableRef::kTag) {
                  ctx->bytes_touched.fetch_add(c->TagBytes());
                  completed = VisitMatches(c->tag_rows(), node, &rng,
                                           ctx.get(), emit);
                } else if (kernel_ok && c->columnar.n > 0) {
                  ctx->bytes_touched.fetch_add(c->FullBytes());
                  ctx->containers_columnar.fetch_add(1);
                  const catalog::ColumnarBlock& block = c->columnar;
                  Status kernel_error;
                  completed = kernel.Scan(
                      block, &rng,
                      [&](size_t idx) {
                        kernel.ProjectRow(block, idx, &row);
                        ctx->objects_matched.fetch_add(1);
                        batch.push_back(row);
                        if (batch.size() >= options_.batch_size) {
                          if (!out->Push(std::move(batch))) return false;
                          batch.clear();
                          batch.reserve(options_.batch_size);
                        }
                        return true;
                      },
                      [&](size_t examined) {
                        if (out->cancelled() || ctx->Cancelled() ||
                            ctx->has_error()) {
                          return false;
                        }
                        ctx->objects_examined.fetch_add(examined);
                        return true;
                      },
                      &kernel_error);
                  if (!kernel_error.ok()) ctx->ReportError(kernel_error);
                } else {
                  ctx->bytes_touched.fetch_add(c->FullBytes());
                  completed = VisitMatches(c->rows(), node, &rng,
                                           ctx.get(), emit);
                }
                if (!completed) return;
                if (!batch.empty()) out->Push(std::move(batch));
              });
              out->CloseWriter();
            });
            break;
          }

          case PlanNodeType::kPairJoin: {
            // The shard-local spatial hash join: phase 1 scans the
            // (assigned) containers and hashes surviving objects into a
            // PairHasher -- plus any boundary ghosts the federated
            // engine shipped here -- and phase 2 compares buckets in
            // parallel, binding each qualifying pair to its satisfying
            // (a, b) assignment before projection.
            runtime.threads.Spawn([this, node, out, ctx, container_filter,
                                   join_ghosts] {
              std::vector<const Container*> containers =
                  CollectScanContainers(node, store_, container_filter);
              dataflow::PairHasher hasher(node->pair_max_sep_arcsec,
                                          node->pair_bucket_level);
              std::mutex hash_mu;
              pool_->ParallelFor(containers.size(), [&](size_t ci) {
                if (out->cancelled() || ctx->Cancelled() ||
                    ctx->has_error()) {
                  return;
                }
                const Container* c = containers[ci];
                ctx->containers_scanned.fetch_add(1);
                ctx->RecordContainerAccess(c);
                ctx->bytes_touched.fetch_add(c->FullBytes());
                // Filter + cover outside the lock; insert under it.
                std::vector<std::pair<const PhotoObj*,
                                      dataflow::PairHasher::BucketSet>>
                    selected;
                for (const PhotoObj& o : c->rows()) {
                  if (ctx->Cancelled()) return;
                  ctx->objects_examined.fetch_add(1);
                  if (node->pair_select) {
                    RowAccessor acc{[&o](const std::string& n) {
                                      return GetAttribute(o, n);
                                    },
                                    o.pos};
                    auto ok = node->pair_select->EvalBool(acc);
                    if (!ok.ok()) {
                      ctx->ReportError(ok.status());
                      return;
                    }
                    if (!*ok) continue;
                  }
                  selected.emplace_back(&o, hasher.ComputeBuckets(o));
                }
                std::lock_guard<std::mutex> lock(hash_mu);
                for (const auto& [o, buckets] : selected) {
                  hasher.AddComputed(o, buckets);
                }
              });
              if (join_ghosts != nullptr && !ctx->has_error()) {
                ctx->bytes_shipped.fetch_add(join_ghosts->objects.size() *
                                             sizeof(PhotoObj));
                for (const PhotoObj& g : join_ghosts->objects) {
                  hasher.Add(&g, /*local=*/false);
                }
              }
              if (ctx->has_error()) {
                out->CloseWriter();
                return;
              }

              std::vector<const dataflow::PairHasher::Bucket*> buckets =
                  hasher.BucketList();
              size_t batch_size = options_.batch_size;
              pool_->ParallelFor(buckets.size(), [&](size_t bi) {
                if (out->cancelled() || ctx->Cancelled() ||
                    ctx->has_error()) {
                  return;
                }
                RowBatch batch;
                batch.reserve(batch_size);
                ResultRow row;
                hasher.ForEachCandidatePair(
                    *buckets[bi],
                    [&](const PhotoObj& lo, const PhotoObj& hi,
                        double sep_arcsec) {
                      if (ctx->Cancelled()) return false;
                      auto fwd = PairHolds(node, lo, hi);
                      if (!fwd.ok()) {
                        ctx->ReportError(fwd.status());
                        return false;
                      }
                      const PhotoObj* a = &lo;
                      const PhotoObj* b = &hi;
                      if (!*fwd) {
                        auto rev = PairHolds(node, hi, lo);
                        if (!rev.ok()) {
                          ctx->ReportError(rev.status());
                          return false;
                        }
                        if (!*rev) return true;
                        a = &hi;
                        b = &lo;
                      }
                      if (!ProjectPairInto(node, *a, *b, sep_arcsec,
                                           ctx.get(), &row)) {
                        return false;
                      }
                      ctx->objects_matched.fetch_add(1);
                      batch.push_back(row);
                      if (batch.size() >= batch_size) {
                        if (!out->Push(std::move(batch))) return false;
                        batch.clear();
                        batch.reserve(batch_size);
                      }
                      return true;
                    });
                if (!batch.empty() && !ctx->has_error()) {
                  out->Push(std::move(batch));
                }
              });
              out->CloseWriter();
            });
            break;
          }

          case PlanNodeType::kUnion: {
            // Both children write into one shared channel; this node
            // deduplicates by obj_id as batches stream through.
            auto in = std::make_shared<RowChannel>();
            runtime.channels.push_back(in);
            for (const auto& child : node->children) {
              start(child.get(), in);
            }
            runtime.threads.Spawn([node, in, out] {
              (void)node;
              std::unordered_set<uint64_t> seen;
              RowBatch batch;
              while (in->Pop(&batch)) {
                RowBatch unique;
                for (ResultRow& r : batch) {
                  if (seen.insert(r.obj_id).second) {
                    unique.push_back(std::move(r));
                  }
                }
                if (!unique.empty() && !out->Push(std::move(unique))) {
                  in->Cancel();
                  break;
                }
              }
              out->CloseWriter();
            });
            break;
          }

          case PlanNodeType::kIntersect:
          case PlanNodeType::kDifference: {
            auto left = std::make_shared<RowChannel>();
            auto right = std::make_shared<RowChannel>();
            runtime.channels.push_back(left);
            runtime.channels.push_back(right);
            start(node->children[0].get(), left);
            start(node->children[1].get(), right);
            bool keep_if_present = node->type == PlanNodeType::kIntersect;
            runtime.threads.Spawn([left, right, out,
                                          keep_if_present] {
              // Build side: drain the right child completely first ("at
              // least one of the child nodes must be complete").
              std::unordered_set<uint64_t> right_ids;
              RowBatch batch;
              while (right->Pop(&batch)) {
                for (const ResultRow& r : batch) right_ids.insert(r.obj_id);
              }
              // Probe side: stream the left child.
              std::unordered_set<uint64_t> emitted;
              while (left->Pop(&batch)) {
                RowBatch keep;
                for (ResultRow& r : batch) {
                  bool present = right_ids.count(r.obj_id) > 0;
                  if (present == keep_if_present &&
                      emitted.insert(r.obj_id).second) {
                    keep.push_back(std::move(r));
                  }
                }
                if (!keep.empty() && !out->Push(std::move(keep))) {
                  left->Cancel();
                  break;
                }
              }
              out->CloseWriter();
            });
            break;
          }

          case PlanNodeType::kSort: {
            auto in = std::make_shared<RowChannel>();
            runtime.channels.push_back(in);
            start(node->children[0].get(), in);
            size_t batch_size = options_.batch_size;
            runtime.threads.Spawn([node, in, out, batch_size] {
              std::vector<ResultRow> all;
              RowBatch batch;
              while (in->Pop(&batch)) {
                for (ResultRow& r : batch) all.push_back(std::move(r));
              }
              size_t col = node->sort_column;
              bool desc = node->sort_desc;
              std::sort(all.begin(), all.end(),
                        [col, desc](const ResultRow& a, const ResultRow& b) {
                          return RowBefore(a, b, col, desc);
                        });
              for (size_t i = 0; i < all.size(); i += batch_size) {
                RowBatch chunk(
                    all.begin() + static_cast<ptrdiff_t>(i),
                    all.begin() + static_cast<ptrdiff_t>(
                                      std::min(i + batch_size, all.size())));
                if (!out->Push(std::move(chunk))) break;
              }
              out->CloseWriter();
            });
            break;
          }

          case PlanNodeType::kLimit: {
            const PlanNode* sort_child = node->children[0].get();
            if (sort_child->type == PlanNodeType::kSort &&
                node->limit >= 0) {
              // Top-k fusion: LIMIT over SORT keeps a bounded heap of the
              // k best rows instead of materializing and sorting the full
              // input -- O(N + k log k) comparisons and O(k) live rows.
              auto in = std::make_shared<RowChannel>();
              runtime.channels.push_back(in);
              start(sort_child->children[0].get(), in);
              size_t batch_size = options_.batch_size;
              runtime.threads.Spawn([node, sort_child, in, out,
                                     batch_size] {
                size_t k = static_cast<size_t>(node->limit);
                size_t col = sort_child->sort_column;
                bool desc = sort_child->sort_desc;
                auto before = [col, desc](const ResultRow& a,
                                          const ResultRow& b) {
                  return RowBefore(a, b, col, desc);
                };
                // Max-heap under `before`: front = worst kept row.
                std::vector<ResultRow> heap;
                heap.reserve(std::min<size_t>(k, 4096));
                RowBatch batch;
                if (k == 0) {
                  in->Cancel();
                } else {
                  while (in->Pop(&batch)) {
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
                  }
                  std::sort_heap(heap.begin(), heap.end(), before);
                }
                for (size_t i = 0; i < heap.size(); i += batch_size) {
                  RowBatch chunk(
                      std::make_move_iterator(
                          heap.begin() + static_cast<ptrdiff_t>(i)),
                      std::make_move_iterator(
                          heap.begin() +
                          static_cast<ptrdiff_t>(std::min(
                              i + batch_size, heap.size()))));
                  if (!out->Push(std::move(chunk))) break;
                }
                out->CloseWriter();
              });
              break;
            }
            auto in = std::make_shared<RowChannel>();
            runtime.channels.push_back(in);
            start(node->children[0].get(), in);
            runtime.threads.Spawn([node, in, out] {
              int64_t remaining = node->limit;
              RowBatch batch;
              while (remaining > 0 && in->Pop(&batch)) {
                if (static_cast<int64_t>(batch.size()) > remaining) {
                  batch.resize(static_cast<size_t>(remaining));
                }
                remaining -= static_cast<int64_t>(batch.size());
                if (!out->Push(std::move(batch))) break;
              }
              in->Cancel();  // Early-out: abort upstream work.
              out->CloseWriter();
            });
            break;
          }

          case PlanNodeType::kAggregate: {
            const PlanNode* scan = node->children[0].get();
            if (scan->type == PlanNodeType::kScan ||
                scan->type == PlanNodeType::kMyDbScan) {
              // Aggregate pushdown: fold inside the container scan. No
              // rows are materialized and no channel sits between scan
              // and fold, so an aggregate costs exactly one pass over
              // the (pruned) containers -- and the federated fan-out's
              // N concurrent sub-aggregates stop ping-ponging batches.
              const bool personal = scan->type == PlanNodeType::kMyDbScan;
              const catalog::ObjectStore* scan_store =
                  personal ? scan->mydb_store : store_;
              const auto* filter = personal ? nullptr : container_filter;
              runtime.threads.Spawn([this, node, scan, out, ctx,
                                     scan_store, filter] {
                std::vector<const Container*> containers =
                    CollectScanContainers(scan, scan_store, filter);
                const bool need_value = !scan->projection.empty();
                const std::string* attr =
                    need_value ? &scan->projection[0] : nullptr;
                ColumnarScan kernel;
                const bool kernel_ok =
                    options_.columnar_kernel && scan->columnar_eligible &&
                    ColumnarScan::Compile(*scan, scan->projection,
                                          &kernel);
                std::mutex fold_mu;
                AggFold total;
                pool_->ParallelFor(containers.size(), [&](size_t ci) {
                  if (out->cancelled() || ctx->Cancelled() ||
                      ctx->has_error()) {
                    return;
                  }
                  const Container* c = containers[ci];
                  ctx->containers_scanned.fetch_add(1);
                  if (scan->type != PlanNodeType::kMyDbScan) {
                    ctx->RecordContainerAccess(c);
                  }
                  // Index-seeded like the row-emitting scan: SAMPLE
                  // picks the same objects whichever thread claims the
                  // container.
                  Rng rng(scan->sample_seed + ci * 7919);
                  AggFold local;
                  auto fold = [&](const auto& obj) {
                    if (need_value) {
                      auto v = GetAnyAttribute(obj, *attr);
                      if (!v.ok()) {
                        ctx->ReportError(v.status());
                        return false;
                      }
                      local.Add(*v);
                    }
                    ++local.count;
                    return true;
                  };
                  bool completed;
                  if (scan->table == TableRef::kTag) {
                    ctx->bytes_touched.fetch_add(c->TagBytes());
                    completed = VisitMatches(c->tag_rows(), scan, &rng,
                                             ctx.get(), fold);
                  } else if (kernel_ok && c->columnar.n > 0) {
                    ctx->bytes_touched.fetch_add(c->FullBytes());
                    ctx->containers_columnar.fetch_add(1);
                    const catalog::ColumnarBlock& block = c->columnar;
                    Status kernel_error;
                    completed = kernel.Scan(
                        block, &rng,
                        [&](size_t idx) {
                          if (need_value) {
                            local.Add(kernel.Value(block, idx));
                          }
                          ++local.count;
                          return true;
                        },
                        [&](size_t examined) {
                          if (out->cancelled() || ctx->Cancelled() ||
                              ctx->has_error()) {
                            return false;
                          }
                          ctx->objects_examined.fetch_add(examined);
                          return true;
                        },
                        &kernel_error);
                    if (!kernel_error.ok()) ctx->ReportError(kernel_error);
                  } else {
                    ctx->bytes_touched.fetch_add(c->FullBytes());
                    completed = VisitMatches(c->rows(), scan, &rng,
                                             ctx.get(), fold);
                  }
                  if (!completed) return;
                  ctx->objects_matched.fetch_add(local.count);
                  std::lock_guard<std::mutex> lock(fold_mu);
                  total.Merge(local);
                });
                if (!ctx->has_error()) {
                  out->Push(
                      {FinishAggregate(node->agg, node->agg_partial,
                                       total)});
                }
                out->CloseWriter();
              });
              break;
            }
            auto in = std::make_shared<RowChannel>();
            runtime.channels.push_back(in);
            start(node->children[0].get(), in);
            runtime.threads.Spawn([node, in, out] {
              AggFold fold;
              RowBatch batch;
              while (in->Pop(&batch)) {
                for (const ResultRow& r : batch) {
                  ++fold.count;
                  if (!r.values.empty()) fold.Add(r.values[0]);
                }
              }
              out->Push(
                  {FinishAggregate(node->agg, node->agg_partial, fold)});
              out->CloseWriter();
            });
            break;
          }
        }
      };

  auto root_channel = std::make_shared<RowChannel>();
  runtime.channels.push_back(root_channel);

  auto t0 = std::chrono::steady_clock::now();
  start(root, root_channel);

  ExecStats stats;
  bool first = true;
  RowBatch batch;
  while (root_channel->Pop(&batch)) {
    if (first && !batch.empty()) {
      stats.seconds_to_first_row =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        t0)
              .count();
      first = false;
    }
    stats.rows_emitted += batch.size();
    if (!on_batch(std::move(batch))) {
      stats.cancelled_early = true;
      runtime.CancelAll();
      break;
    }
  }
  runtime.CancelAll();  // No-op if streams completed normally... except
                        // cancel unblocks any stragglers for join.
  runtime.threads.JoinAll();

  auto t1 = std::chrono::steady_clock::now();
  stats.seconds_total = std::chrono::duration<double>(t1 - t0).count();
  if (first) stats.seconds_to_first_row = stats.seconds_total;
  stats.containers_scanned = ctx->containers_scanned.load();
  stats.containers_columnar = ctx->containers_columnar.load();
  stats.objects_examined = ctx->objects_examined.load();
  stats.objects_matched = ctx->objects_matched.load();
  stats.bytes_touched = ctx->bytes_touched.load();
  stats.bytes_shipped = ctx->bytes_shipped.load();

  {
    std::lock_guard<std::mutex> lock(ctx->mu);
    if (!ctx->first_error.ok()) return ctx->first_error;
  }
  return stats;
}

}  // namespace sdss::query
