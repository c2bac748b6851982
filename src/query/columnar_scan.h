// The columnar scan kernel -- the one way a leaf reads a container:
// predicate + projection/aggregate input compiled once per leaf, then
// executed directly over a container's column views
// (catalog::ColumnarBlock) without ever materializing a PhotoObj or
// resolving an attribute name per row. Photo, mydb and tag leaves all
// run it, and so do the pair join's phase 1 and its ghost harvest; a
// tag leaf reads the same columns at the tag partition's precision
// (catalog::ResolveTagColumn, ColumnarBlock::TagPosition).
//
// The predicate runs a chunk at a time: every node of the compiled tree
// fills one array of kChunk values (attributes through
// ColumnGetter::Gather, operators as flat loops the compiler
// vectorizes), so one evaluator serves every predicate shape.
//
// Bit-exactness contract: answers are identical to the row oracle's
// (Expr::EvalBool + GetAttribute over ColumnarBlock::Materialize() rows,
// or GetTagAttribute over TagObj::FromPhoto rows for tag leaves) --
// attribute conversions go through the resolvers, which mirror those
// accessors, each row's value is computed by the same operations as
// Expr::Eval's recursion, and sampling draws one Bernoulli variate per
// row in row order. Division mirrors Expr::Eval's divide-by-zero error:
// per-row error flags are masked by the same AND/OR short-circuit and by
// the sample, so the kernel errors on exactly the row the oracle errors
// on, with the same status, and the rows before it are still emitted
// first.

#ifndef SDSS_QUERY_COLUMNAR_SCAN_H_
#define SDSS_QUERY_COLUMNAR_SCAN_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "catalog/columnar.h"
#include "core/random.h"
#include "htm/region.h"
#include "query/expr.h"
#include "query/qet.h"

namespace sdss::query {

class ColumnarScan {
 public:
  /// Rows per evaluation chunk: the selection bitmap and every
  /// predicate node's values live in stack arrays of this many rows,
  /// and the sampling, predicate and visit phases each run as a tight
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

  /// The SAMPLE stream for container `ci` of the leaf's container list,
  /// seeded by container INDEX, not claim order, so the same query
  /// samples the same objects on every run whichever thread scans the
  /// container. Empty when the leaf does not sample: seeding a
  /// generator costs more than scanning a typical container.
  std::optional<Rng> SampleStream(size_t ci) const {
    if (sample_ >= 1.0) return std::nullopt;
    return Rng(sample_seed_ + ci * 7919);
  }

  /// Runs sampling + predicate over rows [0, block.n) in row order,
  /// calling `visit(i)` for every surviving row; `visit` returning
  /// false aborts. `rng` is the container's sample stream (see
  /// SampleStream) and may be null when the leaf does not sample.
  /// `tick(m)` is called once per chunk with the number of rows about
  /// to be examined (the caller's objects_examined accounting and
  /// cancellation poll); returning false aborts. Returns true iff the
  /// whole block completed. A predicate evaluation error (divide by
  /// zero) aborts the block after visiting the chunk's earlier
  /// survivors -- exactly the rows Expr::Eval emits before its erroring
  /// row -- and reports Expr::Eval's status through `error` when
  /// non-null.
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
      const size_t stop =
          pred_ != nullptr ? Filter(block, base, m, keep.data()) : m;
      for (size_t k = 0; k < stop; ++k) {
        if (keep[k] != 0 && !visit(base + k)) return false;
      }
      if (stop < m) {
        // Row-at-a-time evaluation emits every earlier match before
        // the erroring row stops the container; the loop above did
        // that, so fail with the identical status (expr.cc's kDiv
        // error).
        if (error != nullptr) {
          *error = Status::InvalidArgument("division by zero");
        }
        return false;
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
  /// its ColumnGetter, so evaluation never touches a string.
  struct Node {
    Expr::Kind kind = Expr::Kind::kLiteral;
    BinOp op = BinOp::kAdd;
    double literal = 0.0;
    catalog::ColumnGetter getter;
    htm::Region region;
    bool tag_position = false;  ///< kSpatial over a tag leaf.
    bool may_error = false;     ///< The subtree divides.
    std::unique_ptr<Node> lhs, rhs;
  };

  /// Chunk buffers EvalChunk's right operands need, held on the stack
  /// up to this many; deeper right nesting spills to the heap.
  static constexpr size_t kInlineSlots = 4;

  /// Masks `keep[k]` (k < m) with the predicate at row base + k.
  /// Returns m, or -- when a row `keep` selects errors -- the first such
  /// k, with keep[0, k) masked and the rest meaningless.
  size_t Filter(const catalog::ColumnarBlock& block, size_t base, size_t m,
                uint8_t* keep) const;

  /// Evaluates `n` over rows [base, base + m): out[k] is the value at
  /// row base + k exactly as Expr::Eval computes it. When n.may_error,
  /// err[k] is set iff Expr::Eval errors at that row: an AND/OR masks
  /// its right operand's flags with the rows whose left value does not
  /// decide the result, so a divisor behind an untaken arm never
  /// errors. Otherwise `err` is untouched. Right operands land in
  /// `slot_vals`/`slot_errs`, chunk-sized buffers, one per level of
  /// right nesting.
  static void EvalChunk(const Node& n, const catalog::ColumnarBlock& b,
                        size_t base, size_t m, double* out, uint8_t* err,
                        double* slot_vals, uint8_t* slot_errs);

  /// Compiles `e`, resolving attributes on the tag partition when `tag`.
  static Status CompileExpr(const Expr& e, bool tag,
                            std::unique_ptr<Node>* out);

  /// How many right-operand buffers EvalChunk needs for `n`.
  static size_t Slots(const Node& n);

  double sample_ = 1.0;
  uint64_t sample_seed_ = 0;
  bool tag_ = false;            ///< A tag leaf: tag positions.
  std::unique_ptr<Node> pred_;  ///< Null = accept all.
  size_t slots_ = 0;            ///< Slots(*pred_).
  std::vector<catalog::ColumnGetter> values_;
};

}  // namespace sdss::query

#endif  // SDSS_QUERY_COLUMNAR_SCAN_H_
