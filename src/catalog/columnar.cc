#include "catalog/columnar.h"

#include <algorithm>

namespace sdss::catalog {

PhotoObj ColumnarBlock::MaterializeObject(size_t i) const {
  PhotoObj o;
  o.obj_id = obj_id[i];
  o.pos = Vec3(x[i], y[i], z[i]);
  o.ra_deg = ra[i];
  o.dec_deg = dec[i];
  for (int b = 0; b < kNumBands; ++b) {
    o.mag[static_cast<size_t>(b)] = mag[static_cast<size_t>(b)][i];
    o.mag_err[static_cast<size_t>(b)] =
        mag_err[static_cast<size_t>(b)][i];
  }
  for (int p = 0; p < kProfileBins; ++p) {
    o.profile[static_cast<size_t>(p)] = profile[static_cast<size_t>(p)][i];
  }
  o.petro_radius_arcsec = petro[i];
  o.surface_brightness = sb[i];
  o.redshift = redshift[i];
  o.flags = flags[i];
  o.obj_class = static_cast<ObjClass>(obj_class[i]);
  o.htm_leaf = htm_leaf[i];
  return o;
}

std::vector<PhotoObj> ColumnarBlock::Materialize() const {
  std::vector<PhotoObj> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(MaterializeObject(i));
  return out;
}

void ColumnStore::Append(const ColumnarBlock& block) {
  Reserve(n_ + block.n);
  size_t offset = 0;
  ForEachColumn(block, [&](const auto& column, const auto&) {
    using T = typename std::decay_t<decltype(column)>::value_type;
    if (block.n > 0) {
      std::memcpy(bytes_.data() + offset + n_ * sizeof(T), column.data(),
                  block.n * sizeof(T));
    }
    offset += cap_ * sizeof(T);
  });
  n_ += block.n;
}

ColumnarBlock ColumnStore::View() const {
  ColumnarBlock b;
  b.n = n_;
  size_t offset = 0;
  ForEachColumn(b, [&](auto& column, const auto&) {
    using Ref = std::decay_t<decltype(column)>;
    column = Ref(bytes_.data() + offset);
    offset += cap_ * sizeof(typename Ref::value_type);
  });
  return b;
}

void ColumnStore::Reserve(size_t rows) {
  if (rows <= cap_) return;
  const size_t cap = std::max(rows, 2 * cap_);
  std::vector<char> grown(cap * kBytesPerObject);
  size_t from = 0;
  size_t to = 0;
  ColumnarBlock types;
  ForEachColumn(types, [&](const auto& column, const auto&) {
    using T = typename std::decay_t<decltype(column)>::value_type;
    if (n_ > 0) {
      std::memcpy(grown.data() + to, bytes_.data() + from, n_ * sizeof(T));
    }
    from += cap_ * sizeof(T);
    to += cap * sizeof(T);
  });
  bytes_ = std::move(grown);
  cap_ = cap;
}

double ColumnGetter::operator()(const ColumnarBlock& b, size_t i) const {
  switch (field_) {
    case Field::kObjId:
      return static_cast<double>(b.obj_id[i]);
    case Field::kRa:
      return b.ra[i];
    case Field::kDec:
      return b.dec[i];
    case Field::kX:
      return b.x[i];
    case Field::kY:
      return b.y[i];
    case Field::kZ:
      return b.z[i];
    case Field::kTagX:
      return static_cast<double>(static_cast<float>(b.x[i]));
    case Field::kTagY:
      return static_cast<double>(static_cast<float>(b.y[i]));
    case Field::kTagZ:
      return static_cast<double>(static_cast<float>(b.z[i]));
    case Field::kMag:
      return static_cast<double>(b.mag[index_][i]);
    case Field::kMagErr:
      return static_cast<double>(b.mag_err[index_][i]);
    case Field::kProfile:
      return static_cast<double>(b.profile[index_][i]);
    case Field::kPetro:
      return static_cast<double>(b.petro[i]);
    case Field::kSb:
      return static_cast<double>(b.sb[i]);
    case Field::kRedshift:
      return static_cast<double>(b.redshift[i]);
    case Field::kFlags:
      return static_cast<double>(b.flags[i]);
    case Field::kClass:
      return static_cast<double>(b.obj_class[i]);
    case Field::kHtmLeaf:
      return static_cast<double>(b.htm_leaf[i]);
  }
  return 0.0;
}

namespace {

/// Gathers `m` elements of `col` starting at `base` into `out` as
/// doubles, bit-identical to per-element ColumnGetter evaluation. The
/// typed block copy plus typed convert loop is the shape the
/// auto-vectorizer handles; double columns are a straight memcpy.
template <typename T>
void GatherAs(const ColumnRef<T>& col, size_t base, size_t m,
              double* out) {
  if constexpr (std::is_same_v<T, double>) {
    col.CopyN(base, m, out);
  } else {
    constexpr size_t kStride = 256;
    T tmp[kStride];
    while (m != 0) {
      const size_t c = m < kStride ? m : kStride;
      col.CopyN(base, c, tmp);
      for (size_t k = 0; k < c; ++k) out[k] = static_cast<double>(tmp[k]);
      base += c;
      out += c;
      m -= c;
    }
  }
}

/// GatherAs for a double column read at the tag's float precision.
void GatherAsFloat(const ColumnRef<double>& col, size_t base, size_t m,
                   double* out) {
  col.CopyN(base, m, out);
  for (size_t k = 0; k < m; ++k) {
    out[k] = static_cast<double>(static_cast<float>(out[k]));
  }
}

}  // namespace

void ColumnGetter::Gather(const ColumnarBlock& b, size_t base, size_t m,
                          double* out) const {
  switch (field_) {
    case Field::kObjId:
      GatherAs(b.obj_id, base, m, out);
      return;
    case Field::kRa:
      GatherAs(b.ra, base, m, out);
      return;
    case Field::kDec:
      GatherAs(b.dec, base, m, out);
      return;
    case Field::kX:
      GatherAs(b.x, base, m, out);
      return;
    case Field::kY:
      GatherAs(b.y, base, m, out);
      return;
    case Field::kZ:
      GatherAs(b.z, base, m, out);
      return;
    case Field::kTagX:
      GatherAsFloat(b.x, base, m, out);
      return;
    case Field::kTagY:
      GatherAsFloat(b.y, base, m, out);
      return;
    case Field::kTagZ:
      GatherAsFloat(b.z, base, m, out);
      return;
    case Field::kMag:
      GatherAs(b.mag[index_], base, m, out);
      return;
    case Field::kMagErr:
      GatherAs(b.mag_err[index_], base, m, out);
      return;
    case Field::kProfile:
      GatherAs(b.profile[index_], base, m, out);
      return;
    case Field::kPetro:
      GatherAs(b.petro, base, m, out);
      return;
    case Field::kSb:
      GatherAs(b.sb, base, m, out);
      return;
    case Field::kRedshift:
      GatherAs(b.redshift, base, m, out);
      return;
    case Field::kFlags:
      GatherAs(b.flags, base, m, out);
      return;
    case Field::kClass:
      GatherAs(b.obj_class, base, m, out);
      return;
    case Field::kHtmLeaf:
      GatherAs(b.htm_leaf, base, m, out);
      return;
  }
}

Result<ColumnGetter> ResolveColumn(const std::string& name) {
  ColumnGetter g;
  auto make = [&g](ColumnGetter::Field f, uint8_t index = 0) {
    g.field_ = f;
    g.index_ = index;
    return g;
  };
  using F = ColumnGetter::Field;
  if (name == "obj_id") return make(F::kObjId);
  if (name == "ra") return make(F::kRa);
  if (name == "dec") return make(F::kDec);
  if (name == "cx") return make(F::kX);
  if (name == "cy") return make(F::kY);
  if (name == "cz") return make(F::kZ);
  for (int b = 0; b < kNumBands; ++b) {
    if (name == kBandNames[b]) {
      return make(F::kMag, static_cast<uint8_t>(b));
    }
    if (name == std::string("err_") + kBandNames[b]) {
      return make(F::kMagErr, static_cast<uint8_t>(b));
    }
  }
  if (name == "size") return make(F::kPetro);
  if (name == "sb") return make(F::kSb);
  if (name == "redshift") return make(F::kRedshift);
  if (name == "flags") return make(F::kFlags);
  if (name == "class") return make(F::kClass);
  if (name == "htm") return make(F::kHtmLeaf);
  if (name.rfind("profile", 0) == 0 && name.size() == 8) {
    int bin = name[7] - '0';
    if (bin >= 0 && bin < kProfileBins) {
      return make(F::kProfile, static_cast<uint8_t>(bin));
    }
  }
  return Status::NotFound("unknown attribute: " + name);
}

Result<ColumnGetter> ResolveTagColumn(const std::string& name) {
  if (!IsTagAttribute(name)) {
    return Status::NotFound("not a tag attribute: " + name);
  }
  using F = ColumnGetter::Field;
  ColumnGetter g;
  if (name == "cx") {
    g.field_ = F::kTagX;
  } else if (name == "cy") {
    g.field_ = F::kTagY;
  } else if (name == "cz") {
    g.field_ = F::kTagZ;
  } else {
    return ResolveColumn(name);
  }
  return g;
}

}  // namespace sdss::catalog
