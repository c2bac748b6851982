// Snapshot: bit-exact columnar round trips of clustered stores, scan
// equivalence of the recovered store, and corruption rejection.

#include "persist/snapshot.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "catalog/sky_generator.h"
#include "core/io.h"
#include "htm/region.h"
#include "persist/crc32.h"

namespace sdss::persist {
namespace {

namespace fs = std::filesystem;

catalog::ObjectStore MakeStore(bool build_tags, uint64_t seed = 901) {
  catalog::SkyModel model;
  model.seed = seed;
  model.num_galaxies = 4000;
  model.num_stars = 2500;
  model.num_quasars = 120;
  catalog::StoreOptions options;
  options.build_tags = build_tags;
  catalog::ObjectStore store(options);
  EXPECT_TRUE(
      store.BulkLoad(catalog::SkyGenerator(model).Generate()).ok());
  return store;
}

/// Field-by-field equality of two stores (all PhotoObj bits, container
/// layout, and tag partition sizes).
void ExpectStoresIdentical(const catalog::ObjectStore& a,
                           const catalog::ObjectStore& b) {
  ASSERT_EQ(a.object_count(), b.object_count());
  ASSERT_EQ(a.container_count(), b.container_count());
  ASSERT_EQ(a.Stats().tag_bytes, b.Stats().tag_bytes);
  auto bit = b.containers().begin();
  for (const auto& [raw, ca] : a.containers()) {
    ASSERT_NE(bit, b.containers().end());
    const catalog::Container& cb = bit->second;
    ASSERT_EQ(raw, bit->first);
    ASSERT_EQ(ca.trixel.raw(), cb.trixel.raw());
    ASSERT_EQ(ca.size(), cb.size());
    for (size_t i = 0; i < ca.size(); ++i) {
      // Field-wise bit-exactness (memcmp would also compare struct
      // padding, which is unspecified). The EncodeSnapshot equality in
      // the callers covers every field; these spot checks localize a
      // failure to the object.
      const catalog::PhotoObj oa = ca.columnar.MaterializeObject(i);
      const catalog::PhotoObj ob = cb.columnar.MaterializeObject(i);
      ASSERT_EQ(oa.obj_id, ob.obj_id) << "container " << raw;
      ASSERT_EQ(oa.pos.x, ob.pos.x);
      ASSERT_EQ(oa.ra_deg, ob.ra_deg);
      ASSERT_EQ(oa.mag, ob.mag);
      ASSERT_EQ(oa.mag_err, ob.mag_err);
      ASSERT_EQ(oa.profile, ob.profile);
      ASSERT_EQ(oa.petro_radius_arcsec, ob.petro_radius_arcsec);
      ASSERT_EQ(oa.surface_brightness, ob.surface_brightness);
      ASSERT_EQ(oa.redshift, ob.redshift);
      ASSERT_EQ(oa.flags, ob.flags);
      ASSERT_EQ(oa.obj_class, ob.obj_class);
      ASSERT_EQ(oa.htm_leaf, ob.htm_leaf);
    }
    ++bit;
  }
}

TEST(PersistSnapshotTest, EncodeDecodeRoundTripsBitExact) {
  catalog::ObjectStore store = MakeStore(/*build_tags=*/false);
  std::string encoded = EncodeSnapshot(store);
  auto decoded = DecodeSnapshot(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectStoresIdentical(store, *decoded);
  // Canonical encoding: re-encoding the recovered store reproduces the
  // byte string, so snapshots can be compared as files.
  EXPECT_EQ(EncodeSnapshot(*decoded), encoded);
}

TEST(PersistSnapshotTest, TagPartitionIsRebuiltOnDecode) {
  catalog::ObjectStore store = MakeStore(/*build_tags=*/true);
  auto decoded = DecodeSnapshot(EncodeSnapshot(store));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->options().build_tags);
  ExpectStoresIdentical(store, *decoded);
  uint64_t tags = 0;
  decoded->ForEachTag([&tags](const catalog::TagObj&) { ++tags; });
  EXPECT_EQ(tags, store.object_count());
}

TEST(PersistSnapshotTest, RecoveredStoreScansIdentically) {
  catalog::ObjectStore store = MakeStore(/*build_tags=*/false);
  auto decoded = DecodeSnapshot(EncodeSnapshot(store));
  ASSERT_TRUE(decoded.ok());
  htm::Region cone = htm::Region::Circle(180.0, 40.0, 4.0);
  uint64_t sum_a = 0, sum_b = 0;
  auto sa = store.QueryRegion(
      cone, [&sum_a](const catalog::PhotoObj& o) { sum_a += o.obj_id; });
  auto sb = decoded->QueryRegion(
      cone, [&sum_b](const catalog::PhotoObj& o) { sum_b += o.obj_id; });
  EXPECT_EQ(sa.accepted, sb.accepted);
  EXPECT_EQ(sa.full_containers, sb.full_containers);
  EXPECT_EQ(sa.partial_containers, sb.partial_containers);
  EXPECT_EQ(sa.bytes_touched, sb.bytes_touched);
  EXPECT_EQ(sum_a, sum_b);
  // The density-map prediction (the paper's cost model) is preserved
  // too -- recovered stores admit and route exactly like fresh ones.
  auto pa = store.PredictRegion(cone);
  auto pb = decoded->PredictRegion(cone);
  EXPECT_EQ(pa.bytes_to_scan, pb.bytes_to_scan);
  EXPECT_EQ(pa.max_objects, pb.max_objects);
}

TEST(PersistSnapshotTest, HeaderPeekReportsTheStore) {
  catalog::ObjectStore store = MakeStore(/*build_tags=*/true);
  std::string encoded = EncodeSnapshot(store);
  auto header = DecodeSnapshotHeader(encoded);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->version, 2u);
  EXPECT_EQ(header->cluster_level, store.cluster_level());
  EXPECT_TRUE(header->build_tags);
  EXPECT_EQ(header->container_count, store.container_count());
  EXPECT_EQ(header->object_count, store.object_count());
  // A fresh BulkLoad is one mutation: epoch 1, carried by the header.
  EXPECT_EQ(header->epoch, 1u);
  EXPECT_EQ(store.epoch(), 1u);
}

TEST(PersistSnapshotTest, EpochSurvivesTheRoundTrip) {
  // The store epoch is the result cache's invalidation clock; recovery
  // must restore it exactly or cached answers from before a crash could
  // be served over different data.
  catalog::ObjectStore store = MakeStore(/*build_tags=*/false);
  catalog::PhotoObj extra =
      store.containers().begin()->second.columnar.MaterializeObject(0);
  extra.obj_id = 99'999'999;
  ASSERT_TRUE(store.Insert(extra).ok());
  ASSERT_TRUE(store.Insert(extra).ok());
  EXPECT_EQ(store.epoch(), 3u);  // BulkLoad + two inserts.

  auto decoded = DecodeSnapshot(EncodeSnapshot(store));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->epoch(), 3u);

  // Decoding a v1 snapshot (no epoch field) yields epoch 0: distinct
  // from any live store's, so stale entries can never match.
  persist::SnapshotHeader v1;
  EXPECT_EQ(v1.epoch, 0u);
}

TEST(PersistSnapshotTest, EveryTruncationIsRejectedWhole) {
  catalog::SkyModel model;
  model.seed = 77;
  model.num_galaxies = 120;
  model.num_stars = 60;
  model.num_quasars = 5;
  catalog::ObjectStore store;
  ASSERT_TRUE(
      store.BulkLoad(catalog::SkyGenerator(model).Generate()).ok());
  std::string encoded = EncodeSnapshot(store);
  // Step through truncation lengths (every boundary would be O(n^2)
  // bytes hashed; a stride still covers header, container, and trailer
  // cuts).
  for (size_t len = 0; len < encoded.size();
       len += 97) {
    auto r = DecodeSnapshot(std::string_view(encoded).substr(0, len));
    EXPECT_FALSE(r.ok()) << "truncation at " << len << " decoded";
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  }
}

TEST(PersistSnapshotTest, BitFlipsAndBadMagicAreRejected) {
  catalog::ObjectStore store = MakeStore(/*build_tags=*/false, 33);
  std::string encoded = EncodeSnapshot(store);
  for (size_t pos : {size_t{0}, size_t{9}, encoded.size() / 2,
                     encoded.size() - 1}) {
    std::string bad = encoded;
    bad[pos] ^= 0x10;
    auto r = DecodeSnapshot(bad);
    EXPECT_FALSE(r.ok()) << "bit flip at " << pos << " decoded";
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  }
  std::string trailing = encoded + "x";
  EXPECT_FALSE(DecodeSnapshot(trailing).ok());
}

TEST(PersistSnapshotTest, WriterAndReaderRoundTripThroughAFile) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / "snapshot_file_roundtrip";
  fs::remove_all(dir);
  ASSERT_TRUE(CreateDirs(dir.string()).ok());
  const std::string path = (dir / "t.snap").string();

  catalog::ObjectStore store = MakeStore(/*build_tags=*/false, 55);
  SnapshotWriter writer(path);
  ASSERT_TRUE(writer.Write(store).ok());
  auto size = FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, writer.bytes_written());
  EXPECT_FALSE(PathExists(path + ".tmp")) << "durable write left a tmp";

  SnapshotReader reader(path);
  auto loaded = reader.Read();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectStoresIdentical(store, *loaded);
  auto header = reader.ReadHeader();
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->object_count, store.object_count());
  fs::remove_all(dir);
}

/// Byte ranges of the container blocks of an encoded version-2 snapshot.
std::vector<std::pair<size_t, size_t>> ContainerBlocks(
    const std::string& encoded) {
  constexpr size_t kHeaderBytes = 8 + 4 + 4 + 1 + 8 + 8 + 8;
  constexpr size_t kBytesPerObject = 145;
  std::vector<std::pair<size_t, size_t>> blocks;
  size_t pos = kHeaderBytes;
  while (pos + 4 < encoded.size()) {
    uint64_t n = 0;
    std::memcpy(&n, encoded.data() + pos + 8, sizeof(n));
    const size_t len = 16 + n * kBytesPerObject;
    blocks.emplace_back(pos, len);
    pos += len;
  }
  return blocks;
}

uint64_t TrixelAt(const std::string& encoded, size_t pos) {
  uint64_t raw = 0;
  std::memcpy(&raw, encoded.data() + pos, sizeof(raw));
  return raw;
}

void SetTrixelAt(std::string* encoded, size_t pos, uint64_t raw) {
  std::memcpy(encoded->data() + pos, &raw, sizeof(raw));
}

/// Rewrites the CRC trailer so only the directory is malformed.
void Reseal(std::string* encoded) {
  const uint32_t crc = Crc32(encoded->data(), encoded->size() - 4);
  std::memcpy(encoded->data() + encoded->size() - 4, &crc, sizeof(crc));
}

TEST(PersistSnapshotTest, MalformedDirectoriesAreCorruptionForEveryReader) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / "snapshot_malformed_directory";
  fs::remove_all(dir);
  ASSERT_TRUE(CreateDirs(dir.string()).ok());
  catalog::ObjectStore store = MakeStore(/*build_tags=*/true, 71);
  const std::string encoded = EncodeSnapshot(store);
  const auto blocks = ContainerBlocks(encoded);
  ASSERT_EQ(blocks.size(), store.container_count());
  ASSERT_GE(blocks.size(), 2u);
  const auto [pos0, len0] = blocks[0];
  const auto [pos1, len1] = blocks[1];

  // Two container blocks swapped: each block intact, order broken.
  std::string swapped = encoded.substr(0, pos0) +
                        encoded.substr(pos1, len1) +
                        encoded.substr(pos0, len0) +
                        encoded.substr(pos1 + len1);
  // The second container claims the first one's trixel.
  std::string duplicate = encoded;
  SetTrixelAt(&duplicate, pos1, TrixelAt(encoded, pos0));
  // The first container's trixel is its (valid) parent, one level up.
  std::string off_level = encoded;
  SetTrixelAt(&off_level, pos0, TrixelAt(encoded, pos0) >> 2);

  for (auto& [name, bytes] :
       std::vector<std::pair<std::string, std::string>>{
           {"swapped", swapped},
           {"duplicate", duplicate},
           {"off_level", off_level}}) {
    SCOPED_TRACE(name);
    Reseal(&bytes);
    ASSERT_EQ(bytes.size(), encoded.size());
    const std::string path = (dir / (name + ".snap")).string();
    ASSERT_TRUE(WriteFileDurable(path, bytes).ok());

    auto decoded = DecodeSnapshot(bytes);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption)
        << decoded.status().ToString();
    auto read = SnapshotReader(path).Read();
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.status().code(), StatusCode::kCorruption)
        << read.status().ToString();
    auto mapped = MapSnapshotStore(path);
    ASSERT_FALSE(mapped.ok());
    EXPECT_EQ(mapped.status().code(), StatusCode::kCorruption)
        << mapped.status().ToString();
  }
  fs::remove_all(dir);
}

TEST(PersistSnapshotTest, MappedContainersRefuseMutation) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / "snapshot_mapped_immutable";
  fs::remove_all(dir);
  ASSERT_TRUE(CreateDirs(dir.string()).ok());
  const std::string path = (dir / "t.snap").string();
  catalog::ObjectStore store = MakeStore(/*build_tags=*/false, 72);
  ASSERT_TRUE(SnapshotWriter(path).Write(store).ok());
  auto mapped = MapSnapshotStore(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  const catalog::PhotoObj obj =
      store.containers().begin()->second.columnar.MaterializeObject(0);
  EXPECT_EQ(mapped->Insert(obj).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(mapped->BulkLoad({obj}).code(),
            StatusCode::kFailedPrecondition);
  // Immutability travels with the container into extracted copies.
  catalog::ObjectStore copy =
      mapped->ExtractContainers({store.containers().begin()->first});
  EXPECT_EQ(copy.Insert(obj).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(mapped->object_count(), store.object_count());
  fs::remove_all(dir);
}

TEST(PersistSnapshotTest, MissingFileIsNotFound) {
  SnapshotReader reader("/nonexistent/dir/t.snap");
  auto r = reader.Read();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace sdss::persist
