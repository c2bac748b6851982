// Columnar containers: the one way a catalog::Container holds its
// objects.
//
// Every container is a ColumnarBlock -- one column view per PhotoObj
// field -- over bytes somebody else keeps alive: either a mapped
// snapshot (the snapshot file format stores each container as exactly
// these columns) or the container's own ColumnStore (stores built by
// BulkLoad / Insert / adoption of a decoded snapshot). The query
// executor's scan kernel runs predicate and aggregate loops directly
// over the views, for the full object and for the tag partition alike
// (a tag leaf reads the same columns through ResolveTagColumn), and
// the pair join filters its candidates there too. Row objects are
// never stored: what needs one (the pair join's survivors, INTO sinks,
// the catalog's row walkers) decodes it on demand with
// MaterializeObject().
//
// The column order is listed once, in ForEachColumn: the snapshot
// writer, the snapshot directory walk and the owned column arrays all
// iterate that list, so the three cannot drift apart. Column bytes are
// little-endian, matching persist/coding.h's host assumption; accessors
// memcpy each element, so the (unaligned) mapped bytes are read without
// undefined behavior and the copies compile to plain unaligned loads.

#ifndef SDSS_CATALOG_COLUMNAR_H_
#define SDSS_CATALOG_COLUMNAR_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "catalog/photo_obj.h"
#include "core/status.h"
#include "core/vec3.h"

namespace sdss::catalog {

/// One column of `T` elements over externally owned, possibly
/// unaligned, little-endian bytes. Element reads copy through memcpy --
/// well-defined at any alignment, and the compiler lowers the 1/4/8
/// byte copies to single loads.
template <typename T>
class ColumnRef {
 public:
  using value_type = T;

  ColumnRef() = default;
  explicit ColumnRef(const char* bytes) : bytes_(bytes) {}

  /// The column's first byte (its elements are contiguous).
  const char* data() const { return bytes_; }

  T operator[](size_t i) const {
    T v;
    std::memcpy(&v, bytes_ + i * sizeof(T), sizeof(T));
    return v;
  }

  /// Copies elements [base, base + m) into `out` as one block memcpy.
  /// Chunked accessors use this instead of per-element operator[]: the
  /// element-wise memcpy lowers to an integer load the vectorizer will
  /// not type as T, while a typed block copy plus a typed convert loop
  /// vectorizes.
  void CopyN(size_t base, size_t m, T* out) const {
    std::memcpy(out, bytes_ + base * sizeof(T), m * sizeof(T));
  }

 private:
  const char* bytes_ = nullptr;
};

/// One container's objects as columns over externally owned bytes (the
/// owner -- a persist::MappedSnapshot or a ColumnStore -- must outlive
/// every view).
struct ColumnarBlock {
  size_t n = 0;
  ColumnRef<uint64_t> obj_id;
  ColumnRef<double> x, y, z;
  ColumnRef<double> ra, dec;
  std::array<ColumnRef<float>, kNumBands> mag;
  std::array<ColumnRef<float>, kNumBands> mag_err;
  std::array<ColumnRef<float>, kProfileBins> profile;
  ColumnRef<float> petro, sb, redshift;
  ColumnRef<uint32_t> flags;
  ColumnRef<uint8_t> obj_class;
  ColumnRef<uint64_t> htm_leaf;

  Vec3 Position(size_t i) const { return Vec3(x[i], y[i], z[i]); }

  /// Row `i`'s position as the tag partition holds it: the coordinates
  /// rounded through float and renormalized -- bit for bit
  /// TagObj::FromPhoto(row).Position().
  Vec3 TagPosition(size_t i) const {
    // Rounded through memory on purpose: GCC 12's SLP vectorizer folds
    // a pair of adjacent (double)(float) round trips away at -O2, which
    // would leave x and y at double precision.
    const volatile float tag[3] = {static_cast<float>(x[i]),
                                   static_cast<float>(y[i]),
                                   static_cast<float>(z[i])};
    return Vec3(tag[0], tag[1], tag[2]).Normalized();
  }

  /// Rebuilds row `i` as a full PhotoObj, field for field.
  PhotoObj MaterializeObject(size_t i) const;

  /// Rebuilds the whole container row-wise, in column order -- the
  /// exact object vector the snapshot was encoded from.
  std::vector<PhotoObj> Materialize() const;
};

/// The one canonical column order -- the snapshot file's on-disk order
/// and the layout of every ColumnStore. Calls `fn(column, get)` for each
/// column of `block` in that order: `column` is the block's
/// ColumnRef<T> (mutable when `block` is, so callers can lay views
/// over bytes), and `get(const PhotoObj&)` returns the object's value
/// for that column as a T.
template <typename Block, typename Fn>
constexpr void ForEachColumn(Block& block, Fn&& fn) {
  fn(block.obj_id, [](const PhotoObj& o) { return o.obj_id; });
  fn(block.x, [](const PhotoObj& o) { return o.pos.x; });
  fn(block.y, [](const PhotoObj& o) { return o.pos.y; });
  fn(block.z, [](const PhotoObj& o) { return o.pos.z; });
  fn(block.ra, [](const PhotoObj& o) { return o.ra_deg; });
  fn(block.dec, [](const PhotoObj& o) { return o.dec_deg; });
  for (size_t b = 0; b < kNumBands; ++b) {
    fn(block.mag[b], [b](const PhotoObj& o) { return o.mag[b]; });
  }
  for (size_t b = 0; b < kNumBands; ++b) {
    fn(block.mag_err[b], [b](const PhotoObj& o) { return o.mag_err[b]; });
  }
  for (size_t p = 0; p < kProfileBins; ++p) {
    fn(block.profile[p], [p](const PhotoObj& o) { return o.profile[p]; });
  }
  fn(block.petro, [](const PhotoObj& o) { return o.petro_radius_arcsec; });
  fn(block.sb, [](const PhotoObj& o) { return o.surface_brightness; });
  fn(block.redshift, [](const PhotoObj& o) { return o.redshift; });
  fn(block.flags, [](const PhotoObj& o) { return o.flags; });
  fn(block.obj_class,
     [](const PhotoObj& o) { return static_cast<uint8_t>(o.obj_class); });
  fn(block.htm_leaf, [](const PhotoObj& o) { return o.htm_leaf; });
}

/// Bytes one object occupies across all columns.
inline constexpr size_t kBytesPerObject = [] {
  ColumnarBlock types;
  size_t bytes = 0;
  ForEachColumn(types, [&bytes](const auto& column, const auto&) {
    bytes += sizeof(typename std::decay_t<decltype(column)>::value_type);
  });
  return bytes;
}();

/// Column arrays a container owns, in one buffer: with room for `cap`
/// rows, each column takes cap elements, back to back in ForEachColumn
/// order. Appends are amortized O(1) per object (the room doubles when
/// it runs out). A View() stays valid until the next Append.
class ColumnStore {
 public:
  /// Appends `m` objects, `at(k)` returning the k-th (k < m).
  template <typename At>
  void Append(size_t m, const At& at) {
    Reserve(n_ + m);
    size_t offset = 0;
    ColumnarBlock types;  // Only the list's column types are used.
    ForEachColumn(types, [&](const auto& column, const auto& get) {
      using T = typename std::decay_t<decltype(column)>::value_type;
      char* dst = bytes_.data() + offset + n_ * sizeof(T);
      for (size_t i = 0; i < m; ++i) {
        const T v = get(at(i));
        std::memcpy(dst + i * sizeof(T), &v, sizeof(T));
      }
      offset += cap_ * sizeof(T);
    });
    n_ += m;
  }

  /// Appends every row of `block`, one column copy at a time.
  void Append(const ColumnarBlock& block);

  /// Column views over the buffer.
  ColumnarBlock View() const;

 private:
  /// Makes room for `rows` rows, moving each column to its new offset.
  void Reserve(size_t rows);

  std::vector<char> bytes_;
  size_t n_ = 0;    ///< Rows stored.
  size_t cap_ = 0;  ///< Rows the buffer has room for.
};

/// A resolved attribute accessor over a ColumnarBlock: the columnar
/// counterpart of catalog::GetAttribute (ResolveColumn) and of
/// GetTagAttribute over TagObj::FromPhoto rows (ResolveTagColumn), with
/// the name resolved once instead of string-compared per row. Values
/// are converted to double exactly as the row accessor converts the
/// corresponding field, so the two are bit-identical.
class ColumnGetter {
 public:
  double operator()(const ColumnarBlock& b, size_t i) const;

  /// Chunk form of operator(): fills `out[0, m)` with the values of rows
  /// [base, base + m). Element k equals operator()(b, base + k) bit for
  /// bit; the field switch runs once per chunk instead of per row, so
  /// the per-field loops are flat load-convert-store sequences the
  /// compiler auto-vectorizes.
  void Gather(const ColumnarBlock& b, size_t base, size_t m,
              double* out) const;

 private:
  friend Result<ColumnGetter> ResolveColumn(const std::string& name);
  friend Result<ColumnGetter> ResolveTagColumn(const std::string& name);

  enum class Field : uint8_t {
    kObjId,
    kRa,
    kDec,
    kX,
    kY,
    kZ,
    kTagX,  ///< x rounded through float, as TagObj::cx holds it.
    kTagY,
    kTagZ,
    kMag,
    kMagErr,
    kProfile,
    kPetro,
    kSb,
    kRedshift,
    kFlags,
    kClass,
    kHtmLeaf,
  };
  Field field_ = Field::kObjId;
  uint8_t index_ = 0;  ///< Band / profile bin for the array fields.
};

/// Resolves one GetAttribute name ("r", "err_g", "cx", "size", ...) to
/// its column accessor; NotFound for names GetAttribute rejects.
Result<ColumnGetter> ResolveColumn(const std::string& name);

/// Resolves one GetTagAttribute name over the same columns: `cx`, `cy`
/// and `cz` read the coordinates rounded through float (the tag's
/// storage precision), the rest as ResolveColumn. NotFound for names
/// outside the tag partition.
Result<ColumnGetter> ResolveTagColumn(const std::string& name);

}  // namespace sdss::catalog

#endif  // SDSS_CATALOG_COLUMNAR_H_
