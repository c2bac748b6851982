#include "query/columnar_scan.h"

namespace sdss::query {

Status ColumnarScan::CompileExpr(const Expr& e, bool tag,
                                 std::unique_ptr<Node>* out) {
  auto node = std::make_unique<Node>();
  node->kind = e.kind();
  switch (e.kind()) {
    case Expr::Kind::kLiteral:
      node->literal = e.literal();
      break;
    case Expr::Kind::kAttr: {
      auto getter = tag ? catalog::ResolveTagColumn(e.attr())
                        : catalog::ResolveColumn(e.attr());
      if (!getter.ok()) return getter.status();
      node->getter = *getter;
      break;
    }
    case Expr::Kind::kNeg:
    case Expr::Kind::kNot:
      SDSS_RETURN_IF_ERROR(CompileExpr(*e.lhs(), tag, &node->lhs));
      break;
    case Expr::Kind::kSpatial:
      node->region = e.region();
      node->tag_position = tag;
      break;
    case Expr::Kind::kBinary:
      node->op = e.op();
      SDSS_RETURN_IF_ERROR(CompileExpr(*e.lhs(), tag, &node->lhs));
      SDSS_RETURN_IF_ERROR(CompileExpr(*e.rhs(), tag, &node->rhs));
      break;
  }
  *out = std::move(node);
  return Status::OK();
}

Status ColumnarScan::Compile(const PlanNode& node,
                             const std::vector<std::string>& attrs,
                             ColumnarScan* out) {
  out->sample_ = node.sample;
  out->tag_ = node.table == TableRef::kTag;
  out->pred_.reset();
  out->simple_cmp_ = false;
  out->values_.clear();
  if (node.predicate) {
    SDSS_RETURN_IF_ERROR(
        CompileExpr(*node.predicate, out->tag_, &out->pred_));
    CompileSimpleCompare(out);
  }
  out->values_.reserve(attrs.size());
  for (const std::string& name : attrs) {
    auto getter = out->tag_ ? catalog::ResolveTagColumn(name)
                            : catalog::ResolveColumn(name);
    if (!getter.ok()) return getter.status();
    out->values_.push_back(*getter);
  }
  return Status::OK();
}

void ColumnarScan::CompileSimpleCompare(ColumnarScan* out) {
  const Node& p = *out->pred_;
  if (p.kind != Expr::Kind::kBinary) return;
  switch (p.op) {
    case BinOp::kLt:
    case BinOp::kLe:
    case BinOp::kGt:
    case BinOp::kGe:
    case BinOp::kEq:
    case BinOp::kNe:
      break;
    default:
      return;
  }
  const Node& l = *p.lhs;
  const Node& r = *p.rhs;
  if (l.kind == Expr::Kind::kAttr && r.kind == Expr::Kind::kLiteral) {
    out->cmp_op_ = p.op;
    out->cmp_getter_ = l.getter;
    out->cmp_literal_ = r.literal;
    out->simple_cmp_ = true;
    return;
  }
  if (l.kind == Expr::Kind::kLiteral && r.kind == Expr::Kind::kAttr) {
    // Mirror to attr-on-the-left form; double comparisons commute
    // exactly under the mirrored operator (including NaN: both sides of
    // each pair are false).
    switch (p.op) {
      case BinOp::kLt:
        out->cmp_op_ = BinOp::kGt;
        break;
      case BinOp::kLe:
        out->cmp_op_ = BinOp::kGe;
        break;
      case BinOp::kGt:
        out->cmp_op_ = BinOp::kLt;
        break;
      case BinOp::kGe:
        out->cmp_op_ = BinOp::kLe;
        break;
      default:
        out->cmp_op_ = p.op;  // kEq / kNe are symmetric.
        break;
    }
    out->cmp_getter_ = r.getter;
    out->cmp_literal_ = l.literal;
    out->simple_cmp_ = true;
  }
}

double ColumnarScan::EvalNode(const Node& n,
                              const catalog::ColumnarBlock& b, size_t i,
                              bool* err) {
  switch (n.kind) {
    case Expr::Kind::kLiteral:
      return n.literal;
    case Expr::Kind::kAttr:
      return n.getter(b, i);
    case Expr::Kind::kNeg:
      return -EvalNode(*n.lhs, b, i, err);
    case Expr::Kind::kNot:
      return EvalNode(*n.lhs, b, i, err) != 0.0 ? 0.0 : 1.0;
    case Expr::Kind::kSpatial:
      return n.region.Contains(n.tag_position ? b.TagPosition(i)
                                              : b.Position(i))
                 ? 1.0
                 : 0.0;
    case Expr::Kind::kBinary: {
      // Short-circuit structure and child order mirror Expr::Eval: a
      // divisor behind an untaken AND/OR arm is never evaluated, and an
      // error in the left child masks one in the right.
      if (n.op == BinOp::kAnd) {
        const double l = EvalNode(*n.lhs, b, i, err);
        if (*err || l == 0.0) return 0.0;
        return EvalNode(*n.rhs, b, i, err) != 0.0 ? 1.0 : 0.0;
      }
      if (n.op == BinOp::kOr) {
        const double l = EvalNode(*n.lhs, b, i, err);
        if (*err) return 0.0;
        if (l != 0.0) return 1.0;
        return EvalNode(*n.rhs, b, i, err) != 0.0 ? 1.0 : 0.0;
      }
      const double l = EvalNode(*n.lhs, b, i, err);
      if (*err) return 0.0;
      const double r = EvalNode(*n.rhs, b, i, err);
      if (*err) return 0.0;
      switch (n.op) {
        case BinOp::kAdd:
          return l + r;
        case BinOp::kSub:
          return l - r;
        case BinOp::kMul:
          return l * r;
        case BinOp::kDiv:
          if (r == 0.0) {
            *err = true;  // The caller raises expr.cc's exact status.
            return 0.0;
          }
          return l / r;
        case BinOp::kLt:
          return l < r ? 1.0 : 0.0;
        case BinOp::kLe:
          return l <= r ? 1.0 : 0.0;
        case BinOp::kGt:
          return l > r ? 1.0 : 0.0;
        case BinOp::kGe:
          return l >= r ? 1.0 : 0.0;
        case BinOp::kEq:
          return l == r ? 1.0 : 0.0;
        case BinOp::kNe:
          return l != r ? 1.0 : 0.0;
        case BinOp::kAnd:
        case BinOp::kOr:
          break;
      }
      return 0.0;
    }
  }
  return 0.0;
}

void ColumnarScan::ProjectRow(const catalog::ColumnarBlock& block,
                              size_t i, ResultRow* row) const {
  row->obj_id = block.obj_id[i];
  row->pos = tag_ ? block.TagPosition(i) : block.Position(i);
  row->values.clear();
  row->values.reserve(values_.size());
  for (const catalog::ColumnGetter& get : values_) {
    row->values.push_back(get(block, i));
  }
}

}  // namespace sdss::query
