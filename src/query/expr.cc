#include "query/expr.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace sdss::query {

const char* BinOpName(BinOp op) {
  switch (op) {
    case BinOp::kAdd:
      return "+";
    case BinOp::kSub:
      return "-";
    case BinOp::kMul:
      return "*";
    case BinOp::kDiv:
      return "/";
    case BinOp::kLt:
      return "<";
    case BinOp::kLe:
      return "<=";
    case BinOp::kGt:
      return ">";
    case BinOp::kGe:
      return ">=";
    case BinOp::kEq:
      return "=";
    case BinOp::kNe:
      return "!=";
    case BinOp::kAnd:
      return "AND";
    case BinOp::kOr:
      return "OR";
  }
  return "?";
}

Expr::Ptr Expr::Literal(double v) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kLiteral));
  e->literal_ = v;
  return e;
}

Expr::Ptr Expr::Attr(std::string name) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kAttr));
  e->attr_ = std::move(name);
  return e;
}

Expr::Ptr Expr::Neg(Ptr operand) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kNeg));
  e->lhs_ = std::move(operand);
  return e;
}

Expr::Ptr Expr::Not(Ptr operand) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kNot));
  e->lhs_ = std::move(operand);
  return e;
}

Expr::Ptr Expr::Binary(BinOp op, Ptr lhs, Ptr rhs) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kBinary));
  e->op_ = op;
  e->lhs_ = std::move(lhs);
  e->rhs_ = std::move(rhs);
  return e;
}

Expr::Ptr Expr::Spatial(htm::Region region, std::string description) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kSpatial));
  e->region_ = std::move(region);
  e->description_ = std::move(description);
  return e;
}

Result<double> Expr::Eval(const RowAccessor& row) const {
  switch (kind_) {
    case Kind::kLiteral:
      return literal_;
    case Kind::kAttr:
      return row.get(attr_);
    case Kind::kNeg: {
      auto v = lhs_->Eval(row);
      if (!v.ok()) return v;
      return -*v;
    }
    case Kind::kNot: {
      auto v = lhs_->Eval(row);
      if (!v.ok()) return v;
      return (*v != 0.0) ? 0.0 : 1.0;
    }
    case Kind::kSpatial:
      return region_.Contains(row.position) ? 1.0 : 0.0;
    case Kind::kBinary: {
      // Short-circuit booleans.
      if (op_ == BinOp::kAnd) {
        auto l = lhs_->Eval(row);
        if (!l.ok()) return l;
        if (*l == 0.0) return 0.0;
        auto r = rhs_->Eval(row);
        if (!r.ok()) return r;
        return (*r != 0.0) ? 1.0 : 0.0;
      }
      if (op_ == BinOp::kOr) {
        auto l = lhs_->Eval(row);
        if (!l.ok()) return l;
        if (*l != 0.0) return 1.0;
        auto r = rhs_->Eval(row);
        if (!r.ok()) return r;
        return (*r != 0.0) ? 1.0 : 0.0;
      }
      auto l = lhs_->Eval(row);
      if (!l.ok()) return l;
      auto r = rhs_->Eval(row);
      if (!r.ok()) return r;
      switch (op_) {
        case BinOp::kAdd:
          return *l + *r;
        case BinOp::kSub:
          return *l - *r;
        case BinOp::kMul:
          return *l * *r;
        case BinOp::kDiv:
          if (*r == 0.0) {
            return Status::InvalidArgument("division by zero");
          }
          return *l / *r;
        case BinOp::kLt:
          return *l < *r ? 1.0 : 0.0;
        case BinOp::kLe:
          return *l <= *r ? 1.0 : 0.0;
        case BinOp::kGt:
          return *l > *r ? 1.0 : 0.0;
        case BinOp::kGe:
          return *l >= *r ? 1.0 : 0.0;
        case BinOp::kEq:
          return *l == *r ? 1.0 : 0.0;
        case BinOp::kNe:
          return *l != *r ? 1.0 : 0.0;
        case BinOp::kAnd:
        case BinOp::kOr:
          break;  // Handled above.
      }
      return Status::Internal("unhandled binary op");
    }
  }
  return Status::Internal("unhandled expr kind");
}

Result<bool> Expr::EvalBool(const RowAccessor& row) const {
  auto v = Eval(row);
  if (!v.ok()) return v.status();
  return *v != 0.0;
}

void Expr::CollectAttrs(std::vector<std::string>* out) const {
  switch (kind_) {
    case Kind::kAttr:
      if (std::find(out->begin(), out->end(), attr_) == out->end()) {
        out->push_back(attr_);
      }
      break;
    case Kind::kNeg:
    case Kind::kNot:
      lhs_->CollectAttrs(out);
      break;
    case Kind::kBinary:
      lhs_->CollectAttrs(out);
      rhs_->CollectAttrs(out);
      break;
    case Kind::kLiteral:
    case Kind::kSpatial:
      break;
  }
}

std::string Expr::ToString() const {
  char buf[48];
  switch (kind_) {
    case Kind::kLiteral:
      std::snprintf(buf, sizeof(buf), "%g", literal_);
      return buf;
    case Kind::kAttr:
      return attr_;
    case Kind::kNeg:
      return "-(" + lhs_->ToString() + ")";
    case Kind::kNot:
      return "NOT (" + lhs_->ToString() + ")";
    case Kind::kSpatial:
      return description_;
    case Kind::kBinary: {
      std::string s = "(";
      s += lhs_->ToString();
      s += " ";
      s += BinOpName(op_);
      s += " ";
      s += rhs_->ToString();
      s += ")";
      return s;
    }
  }
  return "?";
}

bool SplitQualifiedName(const std::string& name, std::string* alias,
                        std::string* attr) {
  size_t dot = name.find('.');
  if (dot == std::string::npos || dot == 0 || dot + 1 >= name.size()) {
    return false;
  }
  if (alias != nullptr) *alias = name.substr(0, dot);
  if (attr != nullptr) *attr = name.substr(dot + 1);
  return true;
}

Expr::Ptr StripAliasQualifier(const Expr::Ptr& expr,
                              const std::string& alias) {
  switch (expr->kind()) {
    case Expr::Kind::kAttr: {
      std::string a, rest;
      if (SplitQualifiedName(expr->attr(), &a, &rest) && a == alias) {
        return Expr::Attr(rest);
      }
      return expr;
    }
    case Expr::Kind::kNeg: {
      Expr::Ptr child = StripAliasQualifier(expr->lhs(), alias);
      return child == expr->lhs() ? expr : Expr::Neg(std::move(child));
    }
    case Expr::Kind::kNot: {
      Expr::Ptr child = StripAliasQualifier(expr->lhs(), alias);
      return child == expr->lhs() ? expr : Expr::Not(std::move(child));
    }
    case Expr::Kind::kBinary: {
      Expr::Ptr l = StripAliasQualifier(expr->lhs(), alias);
      Expr::Ptr r = StripAliasQualifier(expr->rhs(), alias);
      if (l == expr->lhs() && r == expr->rhs()) return expr;
      return Expr::Binary(expr->op(), std::move(l), std::move(r));
    }
    case Expr::Kind::kLiteral:
    case Expr::Kind::kSpatial:
      return expr;
  }
  return expr;
}

void FlattenConjuncts(const Expr::Ptr& expr, std::vector<Expr::Ptr>* out) {
  if (expr->kind() == Expr::Kind::kBinary && expr->op() == BinOp::kAnd) {
    FlattenConjuncts(expr->lhs(), out);
    FlattenConjuncts(expr->rhs(), out);
    return;
  }
  out->push_back(expr);
}

bool ExtractRegion(const Expr::Ptr& expr, htm::Region* out) {
  switch (expr->kind()) {
    case Expr::Kind::kSpatial:
      *out = expr->region();
      return true;
    case Expr::Kind::kBinary: {
      if (expr->op() == BinOp::kAnd) {
        htm::Region l, r;
        bool has_l = ExtractRegion(expr->lhs(), &l);
        bool has_r = ExtractRegion(expr->rhs(), &r);
        if (has_l && has_r) {
          *out = l.IntersectWith(r);
          return true;
        }
        if (has_l) {
          *out = l;
          return true;
        }
        if (has_r) {
          *out = r;
          return true;
        }
        return false;
      }
      if (expr->op() == BinOp::kOr) {
        // Sound only if BOTH branches are spatially bounded.
        htm::Region l, r;
        if (ExtractRegion(expr->lhs(), &l) &&
            ExtractRegion(expr->rhs(), &r)) {
          *out = l.UnionWith(r);
          return true;
        }
        return false;
      }
      return false;
    }
    default:
      // NOT of a spatial atom, attributes, literals: no useful bound.
      return false;
  }
}

}  // namespace sdss::query
