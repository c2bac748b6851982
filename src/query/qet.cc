#include "query/qet.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>

#include "catalog/photo_obj.h"
#include "dataflow/pair_hasher.h"

namespace sdss::query {

// ---------------------------------------------------------------------
// StreamMorsels

bool StreamMorsels(ThreadPool* pool, size_t n, const Morsel& morsel,
                   const BatchSink& consume, size_t max_queued) {
  if (n == 0) return true;

  // Shared with the helper tasks on the heap: a helper may still be
  // leaving its claim loop -- or, on a saturated pool, only start --
  // after this call returned. Helpers that win no index touch nothing
  // but this state; `morsel` is only dereferenced for indices < n, all
  // of which end before `finished` reaches n.
  struct State {
    std::mutex mu;
    std::condition_variable batch_or_end;  ///< Wakes the calling thread.
    std::condition_variable room;          ///< Wakes blocked producers.
    std::deque<RowBatch> queue;
    size_t finished = 0;  ///< Morsels claimed and ended (under mu).
    std::atomic<bool> stopped{false};  ///< Set under mu, read anywhere.
    std::atomic<size_t> next{0};
    size_t n = 0;
    size_t max_queued = 0;
    const Morsel* morsel = nullptr;
  };
  auto state = std::make_shared<State>();
  State& st = *state;
  st.n = n;
  st.max_queued = std::max<size_t>(1, max_queued);
  st.morsel = &morsel;

  auto end_morsel = [](State& s) {
    std::lock_guard<std::mutex> lock(s.mu);
    ++s.finished;
    s.batch_or_end.notify_one();
  };
  auto helper = [state, end_morsel] {
    State& s = *state;
    const BatchSink push = [&s](RowBatch&& batch) {
      std::unique_lock<std::mutex> lock(s.mu);
      s.room.wait(lock,
                  [&s] { return s.stopped || s.queue.size() < s.max_queued; });
      if (s.stopped) return false;
      s.queue.push_back(std::move(batch));
      s.batch_or_end.notify_one();
      return true;
    };
    for (;;) {
      const size_t i = s.next.fetch_add(1);
      if (i >= s.n) return;
      if (!s.stopped.load()) (*s.morsel)(i, push);
      end_morsel(s);
    }
  };
  const size_t helpers = std::min(n - 1, pool->num_threads());
  for (size_t h = 0; h < helpers; ++h) pool->Submit(helper);

  // The calling thread's side: consume, and stop everyone on refusal.
  bool live = true;
  const BatchSink deliver = [&](RowBatch&& batch) {
    if (live && !consume(std::move(batch))) {
      live = false;
      std::lock_guard<std::mutex> lock(st.mu);
      st.stopped = true;
      st.queue.clear();
      st.room.notify_all();
    }
    return live;
  };
  for (;;) {
    RowBatch batch;
    bool popped = false;
    {
      std::unique_lock<std::mutex> lock(st.mu);
      if (st.queue.empty() && st.next.load() >= n) {
        // Every morsel is claimed: wait for a pool morsel's batch or
        // for the last one to end -- never for a queued task to start.
        if (st.finished == n) break;
        st.batch_or_end.wait(lock, [&st] {
          return !st.queue.empty() || st.finished == st.n;
        });
        continue;
      }
      if (!st.queue.empty()) {
        batch = std::move(st.queue.front());
        st.queue.pop_front();
        st.room.notify_one();
        popped = true;
      }
    }
    if (popped) {
      deliver(std::move(batch));
      continue;
    }
    // Nothing queued: run an unclaimed morsel here, straight into
    // `consume`.
    const size_t i = st.next.fetch_add(1);
    if (i >= n) continue;
    if (live) morsel(i, deliver);
    end_morsel(st);
  }
  return live;
}

// ---------------------------------------------------------------------
// Plan explanation

const char* PlanNodeTypeName(PlanNodeType t) {
  switch (t) {
    case PlanNodeType::kScan:
      return "SCAN";
    case PlanNodeType::kMyDbScan:
      return "MYDB_SCAN";
    case PlanNodeType::kPairJoin:
      return "PAIR_JOIN";
    case PlanNodeType::kUnion:
      return "UNION";
    case PlanNodeType::kIntersect:
      return "INTERSECT";
    case PlanNodeType::kDifference:
      return "DIFFERENCE";
    case PlanNodeType::kSort:
      return "SORT";
    case PlanNodeType::kLimit:
      return "LIMIT";
    case PlanNodeType::kAggregate:
      return "AGGREGATE";
    case PlanNodeType::kGather:
      return "GATHER";
  }
  return "?";
}

std::string PlanNode::Explain(int indent) const {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  std::string out = pad + PlanNodeTypeName(type);
  switch (type) {
    case PlanNodeType::kScan:
    case PlanNodeType::kMyDbScan:
      out += type == PlanNodeType::kMyDbScan
                 ? " mydb." + mydb_name
                 : (table == TableRef::kTag ? " tag" : " photo");
      if (has_region) out += " [spatially pruned]";
      if (predicate) out += " where " + predicate->ToString();
      if (sample < 1.0) {
        out += " sample " + std::to_string(sample);
      }
      break;
    case PlanNodeType::kPairJoin: {
      char buf[64];
      std::snprintf(buf, sizeof(buf),
                    " photo %s x %s within %g arcsec [buckets level %d]",
                    pair_alias_a.c_str(), pair_alias_b.c_str(),
                    pair_max_sep_arcsec, pair_bucket_level);
      out += buf;
      if (has_region) out += " [spatially pruned]";
      if (predicate) out += " select " + predicate->ToString();
      if (pair_where) out += " pair " + pair_where->ToString();
      break;
    }
    case PlanNodeType::kSort:
      out += " by column " + std::to_string(sort_column) +
             (sort_desc ? " desc" : " asc");
      break;
    case PlanNodeType::kLimit:
      out += " " + std::to_string(limit);
      break;
    case PlanNodeType::kAggregate:
      out += std::string(" ") + AggFuncName(agg);
      if (agg_partial) out += " [partial]";
      break;
    case PlanNodeType::kGather:
      out += gather_ordered ? " ordered by column " +
                                  std::to_string(sort_column) +
                                  (sort_desc ? " desc" : " asc")
                            : " asap";
      if (gather_pairs) out += " [ghost exchange, pair dedupe]";
      break;
    default:
      break;
  }
  out += "\n";
  for (const auto& c : children) out += c->Explain(indent + 1);
  return out;
}

std::string Plan::Explain(const PlanNode* tree) const {
  if (tree == nullptr) tree = root.get();
  std::string out = tree ? tree->Explain() : "<empty>\n";
  out += used_tag_store ? "store: tag partition\n" : "store: full photo\n";
  out += used_spatial_index ? "index: HTM cover\n" : "index: none\n";
  return out;
}

// ---------------------------------------------------------------------
// Planner

namespace {

// Attributes a select needs: projection + predicate + order key.
std::vector<std::string> ReferencedAttrs(const SelectQuery& s) {
  std::vector<std::string> attrs = s.projection;
  if (s.where) s.where->CollectAttrs(&attrs);
  if (s.has_order &&
      std::find(attrs.begin(), attrs.end(), s.order_by) == attrs.end()) {
    attrs.push_back(s.order_by);
  }
  if (!s.agg_attr.empty() &&
      std::find(attrs.begin(), attrs.end(), s.agg_attr) == attrs.end()) {
    attrs.push_back(s.agg_attr);
  }
  // Deduplicate, preserving order.
  std::vector<std::string> out;
  for (auto& a : attrs) {
    if (std::find(out.begin(), out.end(), a) == out.end()) out.push_back(a);
  }
  return out;
}

Status ValidateAttrs(const std::vector<std::string>& attrs, TableRef table) {
  for (const std::string& a : attrs) {
    if (table == TableRef::kTag) {
      if (!catalog::IsTagAttribute(a)) {
        return Status::InvalidArgument("attribute not in tag objects: " + a);
      }
    } else {
      const auto& names = catalog::PhotoAttributeNames();
      if (std::find(names.begin(), names.end(), a) == names.end()) {
        return Status::InvalidArgument("unknown attribute: " + a);
      }
    }
  }
  return Status::OK();
}

Expr::Ptr AndAlso(Expr::Ptr acc, Expr::Ptr e) {
  if (!acc) return e;
  return Expr::Binary(BinOp::kAnd, std::move(acc), std::move(e));
}

// A column a join select may project / order / fold: "sep" (the pair
// separation in arcsec) or an alias-qualified photo attribute.
Status ValidateJoinAttr(const std::string& name, const JoinClause& join) {
  if (name == "sep") return Status::OK();
  std::string alias, attr;
  if (!SplitQualifiedName(name, &alias, &attr)) {
    return Status::InvalidArgument(
        "join attributes must be qualified with '" + join.alias_a +
        ".' or '" + join.alias_b + ".' (or be 'sep'): " + name);
  }
  if (alias != join.alias_a && alias != join.alias_b) {
    return Status::InvalidArgument("unknown join alias: " + name);
  }
  const auto& names = catalog::PhotoAttributeNames();
  if (std::find(names.begin(), names.end(), attr) == names.end()) {
    return Status::InvalidArgument("unknown attribute: " + name);
  }
  return Status::OK();
}

// Lowers a neighbor-join select onto a kPairJoin leaf (+sort +limit).
// The WHERE splits along its top-level AND spine: unqualified conjuncts
// filter every candidate object in phase 1; alias-qualified conjuncts
// form the pair predicate evaluated under either role assignment. When
// both aliases carry one-sided conjuncts, their stripped disjunction is
// a sound extra phase-1 filter (every member of a qualifying pair
// satisfies one side's conjuncts under the satisfying assignment). A
// spatial bound extracted from the phase-1 filter prunes the join's
// container scan and ghost harvest: both pair members must pass it, so
// no pair can involve an unpruned container.
Result<std::unique_ptr<PlanNode>> PlanJoinSelect(
    const SelectQuery& s, const PlannerOptions& options, bool* used_index,
    std::vector<std::string>* cols) {
  const JoinClause& join = s.join;
  if (s.table != TableRef::kPhoto) {
    return Status::InvalidArgument("pair join requires the photo table");
  }
  if (s.sample < 1.0) {
    return Status::InvalidArgument("SAMPLE is not supported with JOIN");
  }

  std::vector<std::string> projection = s.projection;
  if (projection.empty() && s.agg == AggFunc::kNone) {
    projection = {join.alias_a + ".obj_id", join.alias_b + ".obj_id",
                  "sep"};
  }
  if (s.agg != AggFunc::kNone && !s.agg_attr.empty()) {
    projection = {s.agg_attr};
  }
  for (const std::string& name : projection) {
    SDSS_RETURN_IF_ERROR(ValidateJoinAttr(name, join));
  }

  size_t order_col = 0;
  if (s.has_order) {
    SDSS_RETURN_IF_ERROR(ValidateJoinAttr(s.order_by, join));
    auto it = std::find(projection.begin(), projection.end(), s.order_by);
    if (it == projection.end()) {
      projection.push_back(s.order_by);
      order_col = projection.size() - 1;
    } else {
      order_col = static_cast<size_t>(it - projection.begin());
    }
  }

  Expr::Ptr select_expr, pair_expr, side_a, side_b;
  if (s.where) {
    std::vector<Expr::Ptr> conjuncts;
    FlattenConjuncts(s.where, &conjuncts);
    for (const Expr::Ptr& c : conjuncts) {
      std::vector<std::string> attrs;
      c->CollectAttrs(&attrs);
      bool uses_a = false, uses_b = false, uses_bare = false;
      for (const std::string& n : attrs) {
        std::string alias, attr;
        if (SplitQualifiedName(n, &alias, &attr)) {
          SDSS_RETURN_IF_ERROR(ValidateJoinAttr(n, join));
          (alias == join.alias_a ? uses_a : uses_b) = true;
        } else {
          const auto& names = catalog::PhotoAttributeNames();
          if (std::find(names.begin(), names.end(), n) == names.end()) {
            return Status::InvalidArgument("unknown attribute: " + n);
          }
          uses_bare = true;
        }
      }
      if (!uses_a && !uses_b) {
        select_expr = AndAlso(std::move(select_expr), c);
        continue;
      }
      if (uses_bare) {
        return Status::InvalidArgument(
            "pair predicate mixes qualified and unqualified attributes: " +
            c->ToString());
      }
      pair_expr = AndAlso(std::move(pair_expr), c);
      if (uses_a && !uses_b) side_a = AndAlso(std::move(side_a), c);
      if (uses_b && !uses_a) side_b = AndAlso(std::move(side_b), c);
    }
  }
  if (side_a && side_b) {
    select_expr = AndAlso(
        std::move(select_expr),
        Expr::Binary(BinOp::kOr,
                     StripAliasQualifier(side_a, join.alias_a),
                     StripAliasQualifier(side_b, join.alias_b)));
  }

  auto node = std::make_unique<PlanNode>();
  node->type = PlanNodeType::kPairJoin;
  node->table = TableRef::kPhoto;
  if (options.use_spatial_index && select_expr) {
    htm::Region region;
    if (ExtractRegion(select_expr, &region)) {
      node->has_region = true;
      node->region = std::move(region);
      *used_index = true;
    }
  }
  node->projection = projection;
  node->pair_max_sep_arcsec = join.max_sep_arcsec;
  node->pair_bucket_level =
      dataflow::PairHasher::ChooseBucketLevel(join.max_sep_arcsec);
  node->predicate = std::move(select_expr);
  node->pair_where = std::move(pair_expr);
  node->pair_alias_a = join.alias_a;
  node->pair_alias_b = join.alias_b;

  std::unique_ptr<PlanNode> out = std::move(node);
  if (s.has_order) {
    auto sort = std::make_unique<PlanNode>();
    sort->type = PlanNodeType::kSort;
    sort->sort_column = order_col;
    sort->sort_desc = s.order_desc;
    sort->children.push_back(std::move(out));
    out = std::move(sort);
  }
  if (s.limit >= 0) {
    auto limit = std::make_unique<PlanNode>();
    limit->type = PlanNodeType::kLimit;
    limit->limit = s.limit;
    limit->children.push_back(std::move(out));
    out = std::move(limit);
  }
  *cols = projection;
  return out;
}

// Builds the scan (+sort +limit) subtree for one select block.
Result<std::unique_ptr<PlanNode>> PlanSelect(const SelectQuery& s,
                                             const catalog::ObjectStore& store,
                                             const PlannerOptions& options,
                                             bool* used_tag,
                                             bool* used_index,
                                             std::vector<std::string>* cols) {
  if (s.join.present) {
    *used_tag = false;
    *used_index = false;
    return PlanJoinSelect(s, options, used_index, cols);
  }
  std::vector<std::string> attrs = ReferencedAttrs(s);

  TableRef table = s.table;
  // Auto-selecting the tag partition is only sound when the store
  // actually maintains one (otherwise the rewrite would scan nothing)
  // and the select is not an INTO materialization (the MyDB sink needs
  // full photo rows, never the 10-column tag projection).
  if (options.auto_tag_selection && table == TableRef::kPhoto &&
      store.options().build_tags && s.into_mydb.empty()) {
    bool all_tag = true;
    for (const std::string& a : attrs) {
      if (!catalog::IsTagAttribute(a)) {
        all_tag = false;
        break;
      }
    }
    if (all_tag) table = TableRef::kTag;
  }
  SDSS_RETURN_IF_ERROR(ValidateAttrs(attrs, table));
  *used_tag = table == TableRef::kTag;

  // Projection: explicit attributes, or every attribute of the table for
  // SELECT * (aggregates project only what they fold).
  std::vector<std::string> projection = s.projection;
  if (projection.empty() && s.agg == AggFunc::kNone) {
    if (table == TableRef::kTag) {
      projection = {"cx", "cy", "cz", "u", "g", "r", "i", "z",
                    "size", "class"};
    } else {
      projection = catalog::PhotoAttributeNames();
    }
  }
  if (s.agg != AggFunc::kNone && !s.agg_attr.empty()) {
    projection = {s.agg_attr};
  }
  // ORDER BY key must be projected; append as a hidden trailing column if
  // missing (reported in `cols` so callers can see it).
  size_t order_col = 0;
  if (s.has_order) {
    auto it = std::find(projection.begin(), projection.end(), s.order_by);
    if (it == projection.end()) {
      projection.push_back(s.order_by);
      order_col = projection.size() - 1;
    } else {
      order_col = static_cast<size_t>(it - projection.begin());
    }
  }

  auto scan = std::make_unique<PlanNode>();
  scan->type = PlanNodeType::kScan;
  scan->table = table;
  if (s.table == TableRef::kMyDb) {
    // Resolve the personal store now: the plan holds the store, so
    // execution needs no name lookup (and a bad name fails at plan time).
    if (!options.mydb) {
      return Status::InvalidArgument(
          "no mydb catalog configured; cannot resolve mydb." + s.mydb_name);
    }
    std::shared_ptr<const catalog::ObjectStore> personal =
        options.mydb(s.mydb_name);
    if (personal == nullptr) {
      return Status::NotFound("mydb." + s.mydb_name + " does not exist");
    }
    scan->type = PlanNodeType::kMyDbScan;
    scan->mydb_store = std::move(personal);
    scan->mydb_name = s.mydb_name;
  }
  scan->predicate = s.where;
  scan->projection = projection;
  scan->sample = s.sample;
  if (options.use_spatial_index && s.where) {
    htm::Region region;
    if (ExtractRegion(s.where, &region)) {
      scan->has_region = true;
      scan->region = std::move(region);
      *used_index = true;
    }
  }

  std::unique_ptr<PlanNode> node = std::move(scan);
  if (s.has_order) {
    auto sort = std::make_unique<PlanNode>();
    sort->type = PlanNodeType::kSort;
    sort->sort_column = order_col;
    sort->sort_desc = s.order_desc;
    sort->children.push_back(std::move(node));
    node = std::move(sort);
  }
  if (s.limit >= 0) {
    auto limit = std::make_unique<PlanNode>();
    limit->type = PlanNodeType::kLimit;
    limit->limit = s.limit;
    limit->children.push_back(std::move(node));
    node = std::move(limit);
  }
  *cols = projection;
  return node;
}

using NodePtr = std::shared_ptr<const PlanNode>;

bool IsSetOperation(const PlanNode& node) {
  return node.type == PlanNodeType::kUnion ||
         node.type == PlanNodeType::kIntersect ||
         node.type == PlanNodeType::kDifference;
}

// True when some select branch of the set tree `set` carries a LIMIT: a
// global cap on that branch, which shard-local set inputs would each
// apply locally.
bool BranchLimited(const PlanNode& set) {
  for (const NodePtr& c : set.children) {
    if (IsSetOperation(*c) ? BranchLimited(*c)
                           : c->type == PlanNodeType::kLimit) {
      return true;
    }
  }
  return false;
}

// A gather over `shard_part`: ordered when the part's chain sorts below
// its LIMIT, pair-deduping when the chain ends in a pair join.
NodePtr GatherOver(NodePtr shard_part) {
  auto gather = std::make_shared<PlanNode>();
  gather->type = PlanNodeType::kGather;
  const PlanNode* n = shard_part.get();
  if (n->type == PlanNodeType::kLimit) n = n->children[0].get();
  if (n->type == PlanNodeType::kSort) {
    gather->gather_ordered = true;
    gather->sort_column = n->sort_column;
    gather->sort_desc = n->sort_desc;
  }
  while (!n->children.empty() && !IsSetOperation(*n)) {
    n = n->children[0].get();
  }
  gather->gather_pairs = n->type == PlanNodeType::kPairJoin;
  gather->children.push_back(std::move(shard_part));
  return gather;
}

// The coordinator's tree for the logical subtree `node`.
NodePtr Distribute(const NodePtr& node) {
  switch (node->type) {
    case PlanNodeType::kAggregate: {
      NodePtr input = Distribute(node->children[0]);
      if (input->type == PlanNodeType::kGather && !input->gather_pairs) {
        // The whole body runs on every shard: fold it there, and let the
        // coordinator combine the partials.
        auto partial = std::make_shared<PlanNode>(*node);
        partial->agg_partial = true;
        input = GatherOver(std::move(partial));
      }
      auto agg = std::make_shared<PlanNode>(*node);
      agg->children = {std::move(input)};
      return agg;
    }
    case PlanNodeType::kUnion:
    case PlanNodeType::kIntersect:
    case PlanNodeType::kDifference: {
      // Shards hold disjoint objects, so unlimited set algebra is exact
      // shard by shard; a branch LIMIT is global, so its branch is
      // gathered before the set operation runs here.
      if (!BranchLimited(*node)) return GatherOver(node);
      auto set = std::make_shared<PlanNode>(*node);
      for (NodePtr& c : set->children) c = Distribute(c);
      return set;
    }
    case PlanNodeType::kLimit: {
      // Each shard's capped stream holds its share of the answer; the
      // coordinator's copy of the LIMIT trims the merged stream.
      auto limit = std::make_shared<PlanNode>(*node);
      limit->children = {GatherOver(node)};
      return limit;
    }
    default:
      return GatherOver(node);
  }
}

}  // namespace

void ForEachLeaf(const PlanNode& node,
                 const std::function<void(const PlanNode&)>& fn) {
  if (node.type == PlanNodeType::kScan ||
      node.type == PlanNodeType::kMyDbScan ||
      node.type == PlanNodeType::kPairJoin) {
    fn(node);
  }
  for (const auto& c : node.children) ForEachLeaf(*c, fn);
}

std::shared_ptr<const PlanNode> DistributePlan(
    const std::shared_ptr<const PlanNode>& root) {
  return Distribute(root);
}

Result<Plan> BuildPlan(const ParsedQuery& query,
                       const catalog::ObjectStore& store,
                       const PlannerOptions& options) {
  Plan plan;

  if (query.IsSetQuery()) {
    bool any_join = query.first.join.present;
    bool first_mydb = query.first.table == TableRef::kMyDb;
    for (const auto& [op, select] : query.rest) {
      any_join = any_join || select.join.present;
      if ((select.table == TableRef::kMyDb) != first_mydb) {
        // A mydb store is personal (unsharded): fanning a mixed tree out
        // to N shards would scan the mydb branch N times.
        return Status::InvalidArgument(
            "mydb tables cannot be mixed with fleet tables in set "
            "operations");
      }
    }
    if (any_join) {
      return Status::InvalidArgument(
          "pair join cannot be combined with set operations");
    }
  }

  bool used_tag = false, used_index = false;
  std::vector<std::string> cols;
  auto first = PlanSelect(query.first, store, options, &used_tag,
                          &used_index, &cols);
  if (!first.ok()) return first.status();
  plan.columns = cols;
  plan.used_tag_store = used_tag;

  std::unique_ptr<PlanNode> root = std::move(first).value();

  for (const auto& [op, select] : query.rest) {
    bool tag2 = false, index2 = false;
    std::vector<std::string> cols2;
    auto sub = PlanSelect(select, store, options, &tag2, &index2, &cols2);
    if (!sub.ok()) return sub.status();
    if (cols2.size() != plan.columns.size()) {
      return Status::InvalidArgument(
          "set-operation branches project different column counts");
    }
    used_index = used_index || index2;
    plan.used_tag_store = plan.used_tag_store && tag2;

    auto set = std::make_unique<PlanNode>();
    switch (op) {
      case SetOp::kUnion:
        set->type = PlanNodeType::kUnion;
        break;
      case SetOp::kIntersect:
        set->type = PlanNodeType::kIntersect;
        break;
      case SetOp::kExcept:
        set->type = PlanNodeType::kDifference;
        break;
    }
    set->children.push_back(std::move(root));
    set->children.push_back(std::move(sub).value());
    root = std::move(set);
  }

  if (query.first.agg != AggFunc::kNone) {
    auto agg = std::make_unique<PlanNode>();
    agg->type = PlanNodeType::kAggregate;
    agg->agg = query.first.agg;
    agg->children.push_back(std::move(root));
    root = std::move(agg);
    plan.is_aggregate = true;
    plan.columns = {std::string(AggFuncName(query.first.agg)) +
                    (query.first.agg_attr.empty()
                         ? "(*)"
                         : "(" + query.first.agg_attr + ")")};
  }

  plan.used_spatial_index = used_index;

  plan.root = std::move(root);
  return plan;
}

}  // namespace sdss::query
