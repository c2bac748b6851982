#include "query/result_cache.h"

#include <algorithm>
#include <cstdio>
#include <unordered_set>
#include <utility>

#include "htm/cover.h"
#include "htm/range_set.h"

namespace sdss::query {
namespace {

/// Leaf level of the containment test grid. Finer than the container
/// clustering level so covers track region boundaries closely (fewer
/// false rejections); the test stays exact at any level.
constexpr int kContainLevel = 8;

/// True when `expr` divides anywhere. Division can raise divide-by-zero,
/// which makes conjunct reordering observable and subset re-filtering
/// unsound -- such queries never touch the cache.
bool ContainsDiv(const Expr::Ptr& expr) {
  if (expr == nullptr) return false;
  switch (expr->kind()) {
    case Expr::Kind::kLiteral:
    case Expr::Kind::kAttr:
    case Expr::Kind::kSpatial:
      return false;
    case Expr::Kind::kNeg:
    case Expr::Kind::kNot:
      return ContainsDiv(expr->lhs());
    case Expr::Kind::kBinary:
      if (expr->op() == BinOp::kDiv) return true;
      return ContainsDiv(expr->lhs()) || ContainsDiv(expr->rhs());
  }
  return false;
}

void CanonKey(const Expr& e, std::string* out);

/// Collects canonical keys of the operand spine of a commutative,
/// associative operator ("a AND (b AND c)" and "(c AND a) AND b" yield
/// the same multiset).
void CollectCommutative(const Expr& e, BinOp op,
                        std::vector<std::string>* keys) {
  if (e.kind() == Expr::Kind::kBinary && e.op() == op) {
    CollectCommutative(*e.lhs(), op, keys);
    CollectCommutative(*e.rhs(), op, keys);
    return;
  }
  std::string k;
  CanonKey(e, &k);
  keys->push_back(std::move(k));
}

void EmitSorted(const char* name, std::vector<std::string> keys,
                std::string* out) {
  std::sort(keys.begin(), keys.end());
  *out += '(';
  *out += name;
  for (const std::string& k : keys) {
    *out += ' ';
    *out += k;
  }
  *out += ')';
}

/// Canonical serialization of an expression: commutative operators sort
/// their (flattened) operands, symmetric comparisons sort their sides,
/// and kGt/kGe normalize to kLt/kLe with swapped operands. Reordering is
/// semantics-preserving only for error-free evaluation, which Cacheable
/// guarantees by refusing division.
void CanonKey(const Expr& e, std::string* out) {
  switch (e.kind()) {
    case Expr::Kind::kLiteral: {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", e.literal());
      *out += buf;
      return;
    }
    case Expr::Kind::kAttr:
      *out += "a:";
      *out += e.attr();
      return;
    case Expr::Kind::kSpatial:
      *out += "s:";
      *out += e.description();
      return;
    case Expr::Kind::kNeg:
      *out += "(neg ";
      CanonKey(*e.lhs(), out);
      *out += ')';
      return;
    case Expr::Kind::kNot:
      *out += "(not ";
      CanonKey(*e.lhs(), out);
      *out += ')';
      return;
    case Expr::Kind::kBinary:
      break;
  }
  std::string lk, rk;
  switch (e.op()) {
    case BinOp::kAnd:
    case BinOp::kOr:
    case BinOp::kAdd:
    case BinOp::kMul: {
      std::vector<std::string> keys;
      CollectCommutative(e, e.op(), &keys);
      EmitSorted(BinOpName(e.op()), std::move(keys), out);
      return;
    }
    case BinOp::kEq:
    case BinOp::kNe:
      CanonKey(*e.lhs(), &lk);
      CanonKey(*e.rhs(), &rk);
      if (rk < lk) std::swap(lk, rk);
      *out += e.op() == BinOp::kEq ? "(eq " : "(ne ";
      break;
    case BinOp::kGt:  // a > b == b < a
      CanonKey(*e.rhs(), &lk);
      CanonKey(*e.lhs(), &rk);
      *out += '(';
      *out += BinOpName(BinOp::kLt);
      *out += ' ';
      break;
    case BinOp::kGe:  // a >= b == b <= a
      CanonKey(*e.rhs(), &lk);
      CanonKey(*e.lhs(), &rk);
      *out += '(';
      *out += BinOpName(BinOp::kLe);
      *out += ' ';
      break;
    case BinOp::kLt:
    case BinOp::kLe:
    case BinOp::kSub:
    case BinOp::kDiv:
      CanonKey(*e.lhs(), &lk);
      CanonKey(*e.rhs(), &rk);
      *out += '(';
      *out += BinOpName(e.op());
      *out += ' ';
      break;
  }
  *out += lk;
  *out += ' ';
  *out += rk;
  *out += ')';
}

std::string CanonKey(const Expr& e) {
  std::string out;
  CanonKey(e, &out);
  return out;
}

void FingerprintNode(const PlanNode& n, std::string* out) {
  *out += '{';
  *out += PlanNodeTypeName(n.type);
  char buf[64];
  switch (n.type) {
    case PlanNodeType::kScan:
      std::snprintf(buf, sizeof(buf), " t=%d", static_cast<int>(n.table));
      *out += buf;
      if (n.predicate != nullptr) {
        *out += " p=";
        CanonKey(*n.predicate, out);
      }
      *out += " j=";
      for (const std::string& c : n.projection) {
        *out += c;
        *out += ',';
      }
      if (n.sample < 1.0) {
        std::snprintf(buf, sizeof(buf), " s=%.17g:%llu", n.sample,
                      static_cast<unsigned long long>(n.sample_seed));
        *out += buf;
      }
      break;
    case PlanNodeType::kMyDbScan:
      // Never cached, but keep the fingerprint total: distinct names
      // must never collide.
      *out += " mydb=";
      *out += n.mydb_name;
      break;
    case PlanNodeType::kPairJoin:
      std::snprintf(buf, sizeof(buf), " sep=%.17g", n.pair_max_sep_arcsec);
      *out += buf;
      if (n.predicate != nullptr) {
        *out += " ps=";
        CanonKey(*n.predicate, out);
      }
      if (n.pair_where != nullptr) {
        *out += " pw=";
        CanonKey(*n.pair_where, out);
      }
      break;
    case PlanNodeType::kSort:
      std::snprintf(buf, sizeof(buf), " c=%zu d=%d", n.sort_column,
                    n.sort_desc ? 1 : 0);
      *out += buf;
      break;
    case PlanNodeType::kLimit:
      std::snprintf(buf, sizeof(buf), " n=%lld",
                    static_cast<long long>(n.limit));
      *out += buf;
      break;
    case PlanNodeType::kAggregate:
      std::snprintf(buf, sizeof(buf), " f=%d", static_cast<int>(n.agg));
      *out += buf;
      break;
    case PlanNodeType::kUnion:
    case PlanNodeType::kIntersect:
    case PlanNodeType::kDifference:
    // The cache keys the logical tree, which has no gathers; how a plan
    // is distributed never changes its answer.
    case PlanNodeType::kGather:
      break;
  }
  for (const auto& c : n.children) FingerprintNode(*c, out);
  *out += '}';
}

/// Attribute names a shape needs from an entry's rows: the projection
/// (or aggregate input) plus everything the predicate reads.
void CollectNeeded(const PlanNode& scan, const std::string& agg_attr,
                   std::vector<std::string>* out) {
  for (const std::string& c : scan.projection) out->push_back(c);
  if (!agg_attr.empty()) out->push_back(agg_attr);
  if (scan.predicate != nullptr) scan.predicate->CollectAttrs(out);
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

}  // namespace

ResultCache::ResultCache(Options options) : options_(options) {}

size_t ResultCache::entry_byte_cap() const {
  return options_.max_entry_bytes != 0 ? options_.max_entry_bytes
                                       : options_.max_bytes / 4;
}

bool ResultCache::Cacheable(const ParsedQuery& parsed, const Plan& plan) {
  auto select_ok = [](const SelectQuery& s) {
    if (!s.into_mydb.empty()) return false;       // Workbench materializes.
    if (s.table == TableRef::kMyDb) return false; // Personal versioning.
    if (s.join.present) return false;             // Pair rows lack pos.
    if (s.sample < 1.0) return false;             // Fresh draws each run.
    if (s.limit >= 0 && !s.has_order) return false;  // Nondeterministic.
    if (ContainsDiv(s.where)) return false;       // Error-capable.
    return true;
  };
  if (!select_ok(parsed.first)) return false;
  for (const auto& [op, select] : parsed.rest) {
    (void)op;
    if (!select_ok(select)) return false;
  }
  return plan.root != nullptr;
}

std::string ResultCache::Fingerprint(const Plan& plan) {
  std::string out;
  if (plan.root != nullptr) FingerprintNode(*plan.root, &out);
  return out;
}

size_t ResultCache::ApproxRowBytes(const ResultRow& row) {
  return sizeof(ResultRow) + row.values.size() * sizeof(double);
}

bool ResultCache::AnalyzeShape(const Plan& plan, Shape* out) {
  const PlanNode* n = plan.root.get();
  if (n == nullptr) return false;
  if (n->type == PlanNodeType::kAggregate) {
    // Only order-insensitive folds recombine exactly from a filtered
    // subset; SUM/AVG depend on float addition order and fall through.
    if (n->agg != AggFunc::kCount && n->agg != AggFunc::kMin &&
        n->agg != AggFunc::kMax) {
      return false;
    }
    out->agg = n->agg;
    n = n->children[0].get();
    if (n->type != PlanNodeType::kScan) return false;
    if (!n->projection.empty()) out->agg_attr = n->projection[0];
  } else {
    if (n->type == PlanNodeType::kLimit) {
      out->limit = n->limit;
      n = n->children[0].get();
    }
    if (n->type == PlanNodeType::kSort) {
      out->ordered = true;
      out->order_col = n->sort_column;
      out->order_desc = n->sort_desc;
      n = n->children[0].get();
    }
    // An unordered LIMIT keeps an arrival-order-dependent subset.
    if (out->limit >= 0 && !out->ordered) return false;
  }
  if (n->type != PlanNodeType::kScan) return false;
  if (n->sample < 1.0) return false;
  out->scan = n;
  CollectNeeded(*n, out->agg_attr, &out->needed);
  if (n->predicate != nullptr) {
    std::vector<Expr::Ptr> conjuncts;
    FlattenConjuncts(n->predicate, &conjuncts);
    out->conjunct_keys.reserve(conjuncts.size());
    for (const Expr::Ptr& c : conjuncts) {
      out->conjunct_keys.push_back(CanonKey(*c));
    }
  }
  return true;
}

const htm::RangeSet& ResultCache::Shape::RegionRanges() const {
  if (!region_ranges) {
    region_ranges = htm::Cover(scan->region, kContainLevel).ToRangeSet();
  }
  return *region_ranges;
}

bool ResultCache::EntryServes(const Entry& e, const Shape& q) {
  if (!e.containment_capable) return false;
  // Same PHYSICAL table only: tag rows carry float-precision positions,
  // so a photo entry re-filtered through a tag probe's predicate (or
  // vice versa) could classify boundary objects differently than the
  // real scan would. Auto tag selection makes the table part of the
  // query's semantics here.
  if (e.table != q.scan->table) return false;
  // Every attribute the query reads must have been projected into the
  // entry's rows.
  for (const std::string& name : q.needed) {
    if (std::find(e.columns.begin(), e.columns.end(), name) ==
        e.columns.end()) {
      return false;
    }
  }
  // Q's predicate must imply E's: every conjunct of E is canonically
  // present in Q, or is a spatial atom whose region provably contains
  // Q's plan region (so every row Q can yield satisfies it). The key
  // checks run first, so a differing colour cut rejects the entry
  // before any geometry.
  auto keyed = [&e, &q](size_t i) {
    return std::find(q.conjunct_keys.begin(), q.conjunct_keys.end(),
                     e.conjunct_keys[i]) != q.conjunct_keys.end();
  };
  bool spatial = false;
  for (size_t i = 0; i < e.conjuncts.size(); ++i) {
    if (keyed(i)) continue;
    if (e.conjuncts[i]->kind() != Expr::Kind::kSpatial ||
        !q.scan->has_region) {
      return false;
    }
    spatial = true;
  }
  if (!spatial) return true;
  // Exact containment on the HTM grid: every leaf trixel Q's cover
  // accepts (FULL or PARTIAL -- every object that can satisfy Q lives in
  // one) lies inside a FULL trixel of the atom's cover, i.e. provably
  // inside the atom's region.
  const htm::RangeSet& inner = q.RegionRanges();
  for (size_t i = 0; i < e.conjuncts.size(); ++i) {
    if (keyed(i)) continue;
    if (!inner.IsSubsetOf(e.conjunct_full[i])) return false;
  }
  return true;
}

template <typename List, typename Stale, typename Accept>
auto ResultCache::FindServing(List& lru, const Shape& q, uint64_t epoch,
                              Stale&& stale, Accept&& accept) {
  for (auto e = lru.begin(); e != lru.end();) {
    if (e->epoch != epoch) {
      stale(e++);
      continue;
    }
    if (EntryServes(*e, q) && accept(*e)) return e;
    ++e;
  }
  return lru.end();
}

bool ResultCache::Materialize(const Entry& e, const Shape& q,
                              std::vector<ResultRow>* out) {
  std::unordered_map<std::string, size_t> idx;
  idx.reserve(e.columns.size());
  for (size_t i = 0; i < e.columns.size(); ++i) idx[e.columns[i]] = i;

  std::vector<size_t> proj;
  proj.reserve(q.scan->projection.size());
  for (const std::string& name : q.scan->projection) {
    proj.push_back(idx.at(name));
  }
  const size_t agg_idx = q.agg_attr.empty() ? 0 : idx.at(q.agg_attr);

  AggFold fold;
  std::vector<ResultRow> rows;
  for (const ResultRow& r : e.rows) {
    if (q.scan->predicate != nullptr) {
      RowAccessor acc{
          [&idx, &r](const std::string& name) -> Result<double> {
            auto it = idx.find(name);
            if (it == idx.end()) {
              return Status::NotFound("cached row lacks attribute '" +
                                      name + "'");
            }
            return r.values[it->second];
          },
          r.pos};
      auto keep = q.scan->predicate->EvalBool(acc);
      if (!keep.ok()) return false;  // Cannot happen for served shapes.
      if (!*keep) continue;
    }
    if (q.agg != AggFunc::kNone) {
      ++fold.count;
      if (!q.agg_attr.empty()) fold.Add(r.values[agg_idx]);
      continue;
    }
    ResultRow o;
    o.obj_id = r.obj_id;
    o.obj_id_b = r.obj_id_b;
    o.pos = r.pos;
    o.values.reserve(proj.size());
    for (size_t pi : proj) o.values.push_back(r.values[pi]);
    rows.push_back(std::move(o));
  }
  if (q.agg != AggFunc::kNone) {
    rows.push_back(FinishAggregate(q.agg, false, fold));
  } else {
    if (q.ordered) {
      std::sort(rows.begin(), rows.end(),
                [&q](const ResultRow& a, const ResultRow& b) {
                  return RowBefore(a, b, q.order_col, q.order_desc);
                });
    }
    if (q.limit >= 0 && rows.size() > static_cast<size_t>(q.limit)) {
      rows.resize(static_cast<size_t>(q.limit));
    }
  }
  *out = std::move(rows);
  return true;
}

void ResultCache::TouchLocked(EntryList::iterator it) {
  ++it->heat;
  it->chance = false;
  lru_.splice(lru_.begin(), lru_, it);
}

void ResultCache::EraseLocked(EntryList::iterator it) {
  bytes_used_ -= it->bytes;
  index_.erase(it->fingerprint);
  lru_.erase(it);
}

void ResultCache::EvictForBudgetLocked() {
  while (bytes_used_ > options_.max_bytes && !lru_.empty()) {
    EntryList::iterator victim = std::prev(lru_.end());
    if (victim->heat > 0 && !victim->chance) {
      // Heat-weighted retention: a warm tail entry gets one recycled
      // pass (heat halved) before it can be evicted.
      victim->heat /= 2;
      victim->chance = true;
      lru_.splice(lru_.begin(), lru_, victim);
      continue;
    }
    ++stats_.evictions;
    EraseLocked(victim);
  }
}

bool ResultCache::TryAnswer(const std::string& fingerprint,
                            const Plan& plan, uint64_t epoch, Answer* out) {
  std::lock_guard<std::mutex> lock(mu_);

  auto it = index_.find(fingerprint);
  if (it != index_.end()) {
    if (it->second->epoch == epoch) {
      ++stats_.hits;
      TouchLocked(it->second);
      out->rows = it->second->rows;
      out->containment = false;
      return true;
    }
    ++stats_.epoch_invalidations;
    EraseLocked(it->second);
  }

  Shape shape;
  if (AnalyzeShape(plan, &shape)) {
    EntryList::iterator e = FindServing(
        lru_, shape, epoch,
        [this](EntryList::iterator dead) {
          // Stale entries can never hit again (epochs are monotonic);
          // drop them as they are encountered.
          ++stats_.epoch_invalidations;
          EraseLocked(dead);
        },
        [&shape, out](const Entry& entry) {
          return Materialize(entry, shape, &out->rows);
        });
    if (e != lru_.end()) {
      ++stats_.containment_hits;
      out->containment = true;
      TouchLocked(e);
      return true;
    }
  }
  ++stats_.misses;
  return false;
}

bool ResultCache::WouldAnswer(const std::string& fingerprint,
                              const Plan& plan, uint64_t epoch) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(fingerprint);
  if (it != index_.end() && it->second->epoch == epoch) return true;
  Shape shape;
  if (!AnalyzeShape(plan, &shape)) return false;
  return FindServing(
             lru_, shape, epoch, [](EntryList::const_iterator) {},
             [](const Entry&) { return true; }) != lru_.end();
}

void ResultCache::Install(const std::string& fingerprint, const Plan& plan,
                          uint64_t epoch, std::vector<ResultRow> rows) {
  Entry entry;
  entry.fingerprint = fingerprint;
  entry.epoch = epoch;
  entry.rows = std::move(rows);
  entry.bytes = fingerprint.size() + sizeof(Entry);
  for (const ResultRow& r : entry.rows) entry.bytes += ApproxRowBytes(r);

  // A single-scan row entry (optionally sorted, but never truncated,
  // sampled, or folded) holds the COMPLETE row set of its predicate, so
  // it can answer narrower queries by re-filtering.
  const PlanNode* n = plan.root.get();
  if (n != nullptr && n->type == PlanNodeType::kSort) {
    n = n->children[0].get();
  }
  if (n != nullptr && n->type == PlanNodeType::kScan && n->sample >= 1.0 &&
      n->table != TableRef::kMyDb) {
    entry.containment_capable = true;
    entry.table = n->table;
    entry.columns = n->projection;
    if (n->predicate != nullptr) {
      FlattenConjuncts(n->predicate, &entry.conjuncts);
      entry.conjunct_keys.reserve(entry.conjuncts.size());
      entry.conjunct_full.resize(entry.conjuncts.size());
      for (size_t i = 0; i < entry.conjuncts.size(); ++i) {
        const Expr& c = *entry.conjuncts[i];
        entry.conjunct_keys.push_back(CanonKey(c));
        if (c.kind() == Expr::Kind::kSpatial) {
          entry.conjunct_full[i] =
              htm::Cover(c.region(), kContainLevel).FullRangeSet();
        }
        entry.bytes += sizeof(htm::RangeSet) +
                       entry.conjunct_full[i].range_count() *
                           sizeof(htm::RangeSet::Range);
      }
    }
    for (const std::string& c : entry.columns) entry.bytes += c.size();
  }

  if (entry.bytes > entry_byte_cap()) return;

  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(fingerprint);
  if (it != index_.end()) EraseLocked(it->second);
  bytes_used_ += entry.bytes;
  lru_.push_front(std::move(entry));
  index_[fingerprint] = lru_.begin();
  ++stats_.installs;
  EvictForBudgetLocked();
}

void ResultCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  bytes_used_ = 0;
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.entries = lru_.size();
  s.bytes_used = bytes_used_;
  return s;
}

}  // namespace sdss::query
