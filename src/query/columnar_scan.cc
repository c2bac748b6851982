#include "query/columnar_scan.h"

#include <algorithm>

namespace sdss::query {

namespace {

/// out[k] = out[k] op rhs(k) for k in [0, m), with Expr::Eval's value
/// for every binary operator. AND and OR need no short-circuit here: an
/// untaken right arm never changes the result, only whether the row
/// errors, which EvalChunk's flags track. A zero divisor's quotient is
/// never read (the row is flagged), so division divides by 1 there
/// instead of branching.
template <typename Rhs>
void CombineValues(BinOp op, size_t m, const Rhs& rhs, double* out) {
  switch (op) {
    case BinOp::kAdd:
      for (size_t k = 0; k < m; ++k) out[k] = out[k] + rhs(k);
      return;
    case BinOp::kSub:
      for (size_t k = 0; k < m; ++k) out[k] = out[k] - rhs(k);
      return;
    case BinOp::kMul:
      for (size_t k = 0; k < m; ++k) out[k] = out[k] * rhs(k);
      return;
    case BinOp::kDiv:
      for (size_t k = 0; k < m; ++k) {
        const double d = rhs(k);
        out[k] = out[k] / (d == 0.0 ? 1.0 : d);
      }
      return;
    case BinOp::kLt:
      for (size_t k = 0; k < m; ++k) out[k] = out[k] < rhs(k) ? 1.0 : 0.0;
      return;
    case BinOp::kLe:
      for (size_t k = 0; k < m; ++k) out[k] = out[k] <= rhs(k) ? 1.0 : 0.0;
      return;
    case BinOp::kGt:
      for (size_t k = 0; k < m; ++k) out[k] = out[k] > rhs(k) ? 1.0 : 0.0;
      return;
    case BinOp::kGe:
      for (size_t k = 0; k < m; ++k) out[k] = out[k] >= rhs(k) ? 1.0 : 0.0;
      return;
    case BinOp::kEq:
      for (size_t k = 0; k < m; ++k) out[k] = out[k] == rhs(k) ? 1.0 : 0.0;
      return;
    case BinOp::kNe:
      for (size_t k = 0; k < m; ++k) out[k] = out[k] != rhs(k) ? 1.0 : 0.0;
      return;
    case BinOp::kAnd:
      for (size_t k = 0; k < m; ++k) {
        out[k] = (out[k] != 0.0) & (rhs(k) != 0.0) ? 1.0 : 0.0;
      }
      return;
    case BinOp::kOr:
      for (size_t k = 0; k < m; ++k) {
        out[k] = (out[k] != 0.0) | (rhs(k) != 0.0) ? 1.0 : 0.0;
      }
      return;
  }
}

}  // namespace

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
      node->may_error = node->lhs->may_error;
      break;
    case Expr::Kind::kSpatial:
      node->region = e.region();
      node->tag_position = tag;
      break;
    case Expr::Kind::kBinary:
      node->op = e.op();
      SDSS_RETURN_IF_ERROR(CompileExpr(*e.lhs(), tag, &node->lhs));
      SDSS_RETURN_IF_ERROR(CompileExpr(*e.rhs(), tag, &node->rhs));
      node->may_error = node->op == BinOp::kDiv || node->lhs->may_error ||
                        node->rhs->may_error;
      break;
  }
  *out = std::move(node);
  return Status::OK();
}

size_t ColumnarScan::Slots(const Node& n) {
  switch (n.kind) {
    case Expr::Kind::kNeg:
    case Expr::Kind::kNot:
      return Slots(*n.lhs);
    case Expr::Kind::kBinary: {
      const size_t right =
          n.rhs->kind == Expr::Kind::kLiteral ? 0 : 1 + Slots(*n.rhs);
      return std::max(Slots(*n.lhs), right);
    }
    default:
      return 0;
  }
}

Status ColumnarScan::Compile(const PlanNode& node,
                             const std::vector<std::string>& attrs,
                             ColumnarScan* out) {
  out->sample_ = node.sample;
  out->sample_seed_ = node.sample_seed;
  out->tag_ = node.table == TableRef::kTag;
  out->pred_.reset();
  out->slots_ = 0;
  out->values_.clear();
  if (node.predicate) {
    SDSS_RETURN_IF_ERROR(
        CompileExpr(*node.predicate, out->tag_, &out->pred_));
    out->slots_ = Slots(*out->pred_);
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

void ColumnarScan::EvalChunk(const Node& n, const catalog::ColumnarBlock& b,
                             size_t base, size_t m, double* out,
                             uint8_t* err, double* slot_vals,
                             uint8_t* slot_errs) {
  switch (n.kind) {
    case Expr::Kind::kLiteral:
      std::fill_n(out, m, n.literal);
      return;
    case Expr::Kind::kAttr:
      n.getter.Gather(b, base, m, out);
      return;
    case Expr::Kind::kNeg:
      EvalChunk(*n.lhs, b, base, m, out, err, slot_vals, slot_errs);
      for (size_t k = 0; k < m; ++k) out[k] = -out[k];
      return;
    case Expr::Kind::kNot:
      EvalChunk(*n.lhs, b, base, m, out, err, slot_vals, slot_errs);
      for (size_t k = 0; k < m; ++k) out[k] = out[k] != 0.0 ? 0.0 : 1.0;
      return;
    case Expr::Kind::kSpatial:
      for (size_t k = 0; k < m; ++k) {
        const size_t i = base + k;
        out[k] = n.region.Contains(n.tag_position ? b.TagPosition(i)
                                                  : b.Position(i))
                     ? 1.0
                     : 0.0;
      }
      return;
    case Expr::Kind::kBinary:
      break;
  }
  EvalChunk(*n.lhs, b, base, m, out, err, slot_vals, slot_errs);
  if (n.may_error && !n.lhs->may_error) std::fill_n(err, m, uint8_t{0});
  const Node& r = *n.rhs;
  if (r.kind == Expr::Kind::kLiteral) {
    // A scalar right operand needs no buffer and cannot error.
    const double lit = r.literal;
    if (n.op == BinOp::kDiv && lit == 0.0) std::fill_n(err, m, uint8_t{1});
    CombineValues(n.op, m, [lit](size_t) { return lit; }, out);
    return;
  }
  double* rv = slot_vals;
  uint8_t* re = slot_errs;
  EvalChunk(r, b, base, m, rv, re, slot_vals + kChunk, slot_errs + kChunk);
  // Flags first: AND/OR mask the right operand's with the left values,
  // which CombineValues overwrites. A row whose left operand errored is
  // flagged already, so masking its right flag changes nothing.
  if (r.may_error) {
    constexpr uint8_t kZero = 0;
    switch (n.op) {
      case BinOp::kAnd:
        for (size_t k = 0; k < m; ++k) {
          err[k] |= out[k] != 0.0 ? re[k] : kZero;
        }
        break;
      case BinOp::kOr:
        for (size_t k = 0; k < m; ++k) {
          err[k] |= out[k] == 0.0 ? re[k] : kZero;
        }
        break;
      default:
        for (size_t k = 0; k < m; ++k) err[k] |= re[k];
        break;
    }
  }
  if (n.op == BinOp::kDiv) {
    for (size_t k = 0; k < m; ++k) err[k] |= rv[k] == 0.0 ? 1 : 0;
  }
  CombineValues(n.op, m, [rv](size_t k) { return rv[k]; }, out);
}

size_t ColumnarScan::Filter(const catalog::ColumnarBlock& block, size_t base,
                            size_t m, uint8_t* keep) const {
  std::array<double, kChunk> vals;
  std::array<uint8_t, kChunk> errs;
  std::array<double, kChunk * kInlineSlots> slot_vals;
  std::array<uint8_t, kChunk * kInlineSlots> slot_errs;
  std::vector<double> deep_vals;
  std::vector<uint8_t> deep_errs;
  double* sv = slot_vals.data();
  uint8_t* se = slot_errs.data();
  if (slots_ > kInlineSlots) {
    deep_vals.resize(slots_ * kChunk);
    deep_errs.resize(slots_ * kChunk);
    sv = deep_vals.data();
    se = deep_errs.data();
  }
  EvalChunk(*pred_, block, base, m, vals.data(), errs.data(), sv, se);
  size_t stop = m;
  if (pred_->may_error) {
    for (size_t k = 0; k < m; ++k) {
      if (keep[k] != 0 && errs[k] != 0) {
        stop = k;
        break;
      }
    }
  }
  // The select form (`cond ? keep[k] : 0`) is deliberate: GCC lowers it
  // to a packed compare + AND on baseline x86-64, while the equivalent
  // `keep[k] &= cond` narrows the compare through a bool and stays
  // scalar.
  constexpr uint8_t kZero = 0;
  for (size_t k = 0; k < stop; ++k) {
    keep[k] = vals[k] != 0.0 ? keep[k] : kZero;
  }
  return stop;
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
