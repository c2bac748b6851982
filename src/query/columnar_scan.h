// The columnar scan kernel -- the one way a leaf reads a container:
// predicate + projection/aggregate input compiled once per leaf, then
// executed directly over a container's column views
// (catalog::ColumnarBlock) without ever materializing a PhotoObj or
// resolving an attribute name per row. Photo, mydb and tag leaves all
// run it, and so do the pair join's phase 1 and its ghost harvest; a
// tag leaf reads the same columns at the tag partition's precision
// (catalog::ResolveTagColumn, ColumnarBlock::TagPosition).
//
// Bit-exactness contract: answers are identical to the row oracle's
// (Expr::EvalBool + GetAttribute over ColumnarBlock::Materialize() rows,
// or GetTagAttribute over TagObj::FromPhoto rows for tag leaves) --
// attribute conversions go through the resolvers, which mirror those
// accessors, expression evaluation mirrors Expr::Eval recursion
// exactly, and sampling draws one Bernoulli variate per row in row
// order. Division mirrors Expr::Eval's divide-by-zero error: evaluation
// order (including AND/OR short-circuiting) is identical, so the kernel
// errors on exactly the row the oracle errors on, with the same status,
// and the rows before it are still emitted first.

#ifndef SDSS_QUERY_COLUMNAR_SCAN_H_
#define SDSS_QUERY_COLUMNAR_SCAN_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "catalog/columnar.h"
#include "core/random.h"
#include "htm/region.h"
#include "query/expr.h"
#include "query/qet.h"

namespace sdss::query {

class ColumnarScan {
 public:
  /// Rows per filter chunk: the selection bitmap lives in a stack
  /// array, and sampling / predicate / visit phases each run as a tight
  /// loop over one chunk.
  static constexpr size_t kChunk = 256;

  /// Compiles the scan leaf `node` with `attrs` as its value columns
  /// (the projection for row scans; the aggregate input, possibly
  /// empty, for pushdown). Fails -- leaving `out` unusable -- only for
  /// an attribute the leaf's table does not have, which a plan that
  /// passed the planner's attribute validation never references.
  static Status Compile(const PlanNode& node,
                        const std::vector<std::string>& attrs,
                        ColumnarScan* out);

  /// Runs sampling + predicate over rows [0, block.n) in row order,
  /// calling `visit(i)` for every surviving row; `visit` returning
  /// false aborts. `tick(m)` is called once per chunk with the number
  /// of rows about to be examined (the caller's objects_examined
  /// accounting and cancellation poll); returning false aborts.
  /// Returns true iff the whole block completed. A predicate evaluation
  /// error (divide by zero) aborts the block after visiting the chunk's
  /// earlier survivors -- exactly the rows Expr::Eval emits before its
  /// erroring row -- and reports Expr::Eval's status through `error`
  /// when non-null.
  template <typename Visit, typename Tick>
  bool Scan(const catalog::ColumnarBlock& block, Rng* rng,
            const Visit& visit, const Tick& tick,
            Status* error = nullptr) const {
    std::array<uint8_t, kChunk> keep;
    for (size_t base = 0; base < block.n; base += kChunk) {
      const size_t m = std::min(kChunk, block.n - base);
      if (!tick(m)) return false;
      if (sample_ < 1.0) {
        for (size_t k = 0; k < m; ++k) {
          keep[k] = rng->Bernoulli(sample_) ? 1 : 0;
        }
      } else {
        std::fill_n(keep.begin(), m, uint8_t{1});
      }
      if (pred_ != nullptr && simple_cmp_) {
        // The dominant leaf shape -- one `attr op literal` comparison --
        // runs as two flat chunk loops (column gather, then compare)
        // that the compiler auto-vectorizes. A bare comparison cannot
        // error, and evaluating it for sampled-out rows is unobservable,
        // so masking with `keep` afterwards is exact.
        std::array<double, kChunk> vals;
        cmp_getter_.Gather(block, base, m, vals.data());
        ApplyCompare(cmp_op_, vals.data(), m, cmp_literal_, keep.data());
      } else if (pred_ != nullptr) {
        for (size_t k = 0; k < m; ++k) {
          if (keep[k] != 0) {
            bool err = false;
            const double v = EvalNode(*pred_, block, base + k, &err);
            if (err) {
              // Row-at-a-time evaluation emits every earlier match
              // before the erroring row stops the container; mirror it,
              // then fail with the identical status (expr.cc's kDiv
              // error).
              for (size_t j = 0; j < k; ++j) {
                if (keep[j] != 0 && !visit(base + j)) return false;
              }
              if (error != nullptr) {
                *error = Status::InvalidArgument("division by zero");
              }
              return false;
            }
            keep[k] = v != 0.0 ? 1 : 0;
          }
        }
      }
      for (size_t k = 0; k < m; ++k) {
        if (keep[k] != 0 && !visit(base + k)) return false;
      }
    }
    return true;
  }

  /// Projects row `i` into `row`: obj_id, the position (the tag's for
  /// tag leaves) and the compiled value columns, in `attrs` order.
  void ProjectRow(const catalog::ColumnarBlock& block, size_t i,
                  ResultRow* row) const;

  /// The first compiled value column at row `i` (the aggregate input).
  /// Only valid when Compile was given a non-empty `attrs`.
  double Value(const catalog::ColumnarBlock& block, size_t i) const {
    return values_[0](block, i);
  }

 private:
  /// A compiled expression node: Expr with every attribute resolved to
  /// its ColumnGetter, so per-row evaluation never touches a string.
  struct Node {
    Expr::Kind kind = Expr::Kind::kLiteral;
    BinOp op = BinOp::kAdd;
    double literal = 0.0;
    catalog::ColumnGetter getter;
    htm::Region region;
    bool tag_position = false;  ///< kSpatial over a tag leaf.
    std::unique_ptr<Node> lhs, rhs;
  };

  /// Evaluates a compiled tree at row `i`, mirroring Expr::Eval
  /// (including AND/OR short-circuit structure and the left-to-right
  /// error propagation a zero divisor triggers). `*err` is set -- and
  /// the return value meaningless -- on the first divide-by-zero, in
  /// exactly the evaluation-order position Expr::Eval errors at.
  static double EvalNode(const Node& n, const catalog::ColumnarBlock& b,
                         size_t i, bool* err);

  /// Compiles `e`, resolving attributes on the tag partition when `tag`.
  static Status CompileExpr(const Expr& e, bool tag,
                            std::unique_ptr<Node>* out);

  /// Recognizes a predicate that is exactly one `attr op literal`
  /// comparison (either operand order) and fills the simple-compare
  /// members, enabling the vectorized chunk path in Scan.
  static void CompileSimpleCompare(ColumnarScan* out);

  /// Masks `keep[k]` with (vals[k] op literal) for k in [0, m). The
  /// select form (`cond ? keep[k] : 0`) is deliberate: GCC lowers it to
  /// a packed compare + AND on baseline x86-64, while the equivalent
  /// `keep[k] &= cond` read-modify-write narrows the compare through a
  /// bool whose double-to-byte mask conversion has no SSE2 pattern and
  /// stays scalar.
  static void ApplyCompare(BinOp op, const double* vals, size_t m,
                           double literal, uint8_t* keep) {
    constexpr uint8_t kZero = 0;
    switch (op) {
      case BinOp::kLt:
        for (size_t k = 0; k < m; ++k) {
          keep[k] = vals[k] < literal ? keep[k] : kZero;
        }
        return;
      case BinOp::kLe:
        for (size_t k = 0; k < m; ++k) {
          keep[k] = vals[k] <= literal ? keep[k] : kZero;
        }
        return;
      case BinOp::kGt:
        for (size_t k = 0; k < m; ++k) {
          keep[k] = vals[k] > literal ? keep[k] : kZero;
        }
        return;
      case BinOp::kGe:
        for (size_t k = 0; k < m; ++k) {
          keep[k] = vals[k] >= literal ? keep[k] : kZero;
        }
        return;
      case BinOp::kEq:
        for (size_t k = 0; k < m; ++k) {
          keep[k] = vals[k] == literal ? keep[k] : kZero;
        }
        return;
      case BinOp::kNe:
        for (size_t k = 0; k < m; ++k) {
          keep[k] = vals[k] != literal ? keep[k] : kZero;
        }
        return;
      default:
        return;  // Unreachable: CompileSimpleCompare filters operators.
    }
  }

  double sample_ = 1.0;
  bool tag_ = false;            ///< A tag leaf: tag positions.
  std::unique_ptr<Node> pred_;  ///< Null = accept all.
  bool simple_cmp_ = false;     ///< Scan may take the vectorized path.
  BinOp cmp_op_ = BinOp::kLt;
  double cmp_literal_ = 0.0;
  catalog::ColumnGetter cmp_getter_;
  std::vector<catalog::ColumnGetter> values_;
};

}  // namespace sdss::query

#endif  // SDSS_QUERY_COLUMNAR_SCAN_H_
