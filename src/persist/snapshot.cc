#include "persist/snapshot.h"

#include <algorithm>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/io.h"
#include "htm/htm_id.h"
#include "persist/coding.h"
#include "persist/crc32.h"

namespace sdss::persist {
namespace {

constexpr char kMagic[8] = {'S', 'D', 'S', 'S', 'S', 'N', 'P', '1'};
/// Version 2 appended epoch:u64 to the header (the trailing-bytes
/// versioning rule of docs/PROTOCOL.md section 8: new fields append,
/// decoders key the header size off the version). Version 1 files are
/// still read, with epoch 0.
constexpr uint32_t kVersion = 2;
constexpr size_t kHeaderBytesV1 = 8 + 4 + 4 + 1 + 8 + 8;
constexpr size_t kTrailerBytes = 4;

size_t HeaderBytes(uint32_t version) {
  return version >= 2 ? kHeaderBytesV1 + 8 : kHeaderBytesV1;
}
/// Fixed bytes of one object across all columns (the n-proportional part
/// of a container block). The column list is the file format: changing
/// it needs a new version.
constexpr uint64_t kBytesPerObject = catalog::kBytesPerObject;
static_assert(kBytesPerObject == 145, "column list changed: bump kVersion");

Status Corrupt(const std::string& why) {
  return Status::Corruption("snapshot: " + why);
}

void EncodeContainer(const catalog::Container& c, std::string* out) {
  const catalog::ColumnarBlock& block = c.columnar;
  PutFixed64(out, c.trixel.raw());
  PutFixed64(out, block.n);
  // Column bytes are already the file's little-endian layout.
  catalog::ForEachColumn(block, [&](const auto& column, const auto&) {
    using T = typename std::decay_t<decltype(column)>::value_type;
    if (block.n > 0) out->append(column.data(), block.n * sizeof(T));
  });
}

/// Lays column views over one container's `n`-object column block
/// starting at `bytes` (the byte just past the trixel/n prefix).
catalog::ColumnarBlock IndexColumns(const char* bytes, uint64_t n) {
  catalog::ColumnarBlock b;
  b.n = n;
  const char* cur = bytes;
  catalog::ForEachColumn(b, [&](auto& column, const auto&) {
    using Ref = std::decay_t<decltype(column)>;
    column = Ref(cur);
    cur += sizeof(typename Ref::value_type) * n;
  });
  return b;
}

using Blocks = std::vector<std::pair<htm::HtmId, catalog::ColumnarBlock>>;

/// The one validating walk over an encoded snapshot: verifies the header
/// and CRC, then every container block's bounds, trixel (valid, at the
/// header's cluster level, strictly ascending) and the object total, and
/// indexes each block's columns as views into `data`. Every way the file
/// can be wrong is a kCorruption.
Result<SnapshotHeader> WalkSnapshot(std::string_view data, Blocks* blocks) {
  auto header = DecodeSnapshotHeader(data);
  if (!header.ok()) return header.status();

  Cursor cursor(data.substr(0, data.size() - kTrailerBytes));
  cursor.Skip(HeaderBytes(header->version));
  uint64_t total_objects = 0;
  blocks->clear();
  // Reserve only what the bytes can hold: a corrupt count must not
  // drive the allocation.
  blocks->reserve(std::min<uint64_t>(header->container_count,
                                     cursor.remaining() / 16));
  for (uint64_t i = 0; i < header->container_count; ++i) {
    uint64_t trixel_raw = 0;
    uint64_t n = 0;
    if (!cursor.GetFixed64(&trixel_raw) || !cursor.GetFixed64(&n)) {
      return Corrupt("truncated container block " + std::to_string(i));
    }
    // Division avoids overflow on a corrupt (huge) count.
    if (n > cursor.remaining() / kBytesPerObject) {
      return Corrupt("truncated container block " + std::to_string(i));
    }
    auto trixel = htm::HtmId::FromRaw(trixel_raw);
    if (!trixel.ok()) return Corrupt("invalid container trixel id");
    if (trixel->level() != header->cluster_level) {
      return Corrupt("container trixel off the cluster level");
    }
    if (!blocks->empty() && trixel_raw <= blocks->back().first.raw()) {
      return Corrupt("container trixels out of order");
    }
    blocks->emplace_back(*trixel,
                         IndexColumns(data.data() + cursor.position(), n));
    cursor.Skip(n * kBytesPerObject);
    total_objects += n;
  }
  if (!cursor.done()) return Corrupt("trailing bytes after containers");
  if (total_objects != header->object_count) {
    return Corrupt("object count mismatch");
  }
  return header;
}

/// An empty store configured as the snapshot's header says.
catalog::ObjectStore StoreFor(const SnapshotHeader& header) {
  catalog::StoreOptions options;
  options.cluster_level = header.cluster_level;
  options.build_tags = header.build_tags;
  return catalog::ObjectStore(options);
}

}  // namespace

std::string EncodeSnapshot(const catalog::ObjectStore& store) {
  std::string out;
  uint64_t payload = 0;
  for (const auto& [raw, c] : store.containers()) {
    payload += 16 + c.size() * kBytesPerObject;
  }
  out.reserve(HeaderBytes(kVersion) + payload + kTrailerBytes);
  out.append(kMagic, sizeof(kMagic));
  PutFixed32(&out, kVersion);
  PutFixed32(&out, static_cast<uint32_t>(store.cluster_level()));
  PutFixed8(&out, store.options().build_tags ? 1 : 0);
  PutFixed64(&out, store.container_count());
  PutFixed64(&out, store.object_count());
  PutFixed64(&out, store.epoch());
  // std::map iteration is trixel-ascending: the encoding is canonical,
  // so byte-comparing two snapshots compares the stores.
  for (const auto& [raw, c] : store.containers()) {
    EncodeContainer(c, &out);
  }
  PutFixed32(&out, Crc32(out));
  return out;
}

Result<SnapshotHeader> DecodeSnapshotHeader(std::string_view data) {
  if (data.size() < kHeaderBytesV1 + kTrailerBytes) {
    return Corrupt("file shorter than header + trailer");
  }
  if (std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    return Corrupt("bad magic");
  }
  const uint32_t crc =
      Crc32(data.data(), data.size() - kTrailerBytes);
  Cursor trailer(data);
  trailer.Skip(data.size() - kTrailerBytes);
  uint32_t stored_crc = 0;
  trailer.GetFixed32(&stored_crc);
  if (crc != stored_crc) return Corrupt("CRC mismatch");

  Cursor cursor(data);
  cursor.Skip(sizeof(kMagic));
  SnapshotHeader h;
  uint32_t level = 0;
  uint8_t tags = 0;
  if (!cursor.GetFixed32(&h.version) || !cursor.GetFixed32(&level) ||
      !cursor.GetFixed8(&tags) || !cursor.GetFixed64(&h.container_count) ||
      !cursor.GetFixed64(&h.object_count)) {
    return Corrupt("truncated header");
  }
  if (h.version < 1 || h.version > kVersion) {
    return Corrupt("unsupported version " + std::to_string(h.version));
  }
  // Version 2 appended the epoch; version 1 files decode with epoch 0.
  if (h.version >= 2 && !cursor.GetFixed64(&h.epoch)) {
    return Corrupt("truncated header");
  }
  h.cluster_level = static_cast<int>(level);
  h.build_tags = tags != 0;
  return h;
}

Result<catalog::ObjectStore> DecodeSnapshot(std::string_view data) {
  Blocks blocks;
  auto header = WalkSnapshot(data, &blocks);
  if (!header.ok()) return header.status();
  catalog::ObjectStore store = StoreFor(*header);
  for (const auto& [trixel, block] : blocks) {
    // Owned copies: the store outlives `data`.
    SDSS_RETURN_IF_ERROR(store.AdoptContainer(trixel, block));
  }
  // Adoption did not bump; the recovered store continues the writer's
  // generation sequence (and re-encodes to the identical byte string).
  store.RestoreEpoch(header->epoch);
  return store;
}

Status SnapshotWriter::Write(const catalog::ObjectStore& store) {
  std::string encoded = EncodeSnapshot(store);
  SDSS_RETURN_IF_ERROR(WriteFileDurable(path_, encoded));
  bytes_written_ = encoded.size();
  return Status::OK();
}

Result<catalog::ObjectStore> SnapshotReader::Read() const {
  auto data = ReadFileToString(path_);
  if (!data.ok()) return data.status();
  return DecodeSnapshot(*data);
}

Result<SnapshotHeader> SnapshotReader::ReadHeader() const {
  auto data = ReadFileToString(path_);
  if (!data.ok()) return data.status();
  return DecodeSnapshotHeader(*data);
}

Result<MappedSnapshot> MappedSnapshot::Open(const std::string& path) {
  auto file = MappedFile::Open(path);
  if (!file.ok()) return file.status();

  MappedSnapshot snap;
  snap.file_ = std::move(*file);
  auto header = WalkSnapshot(snap.file_.view(), &snap.blocks_);
  if (!header.ok()) return header.status();
  snap.header_ = *header;
  return snap;
}

Result<catalog::ObjectStore> AdoptStore(
    std::shared_ptr<const MappedSnapshot> snap) {
  if (snap == nullptr) {
    return Status::InvalidArgument("null mapped snapshot");
  }
  catalog::ObjectStore store = StoreFor(snap->header());
  for (const auto& [trixel, block] : snap->blocks()) {
    SDSS_RETURN_IF_ERROR(store.AdoptContainer(trixel, block, snap));
  }
  store.RestoreEpoch(snap->header().epoch);
  return store;
}

Result<catalog::ObjectStore> MapSnapshotStore(const std::string& path) {
  auto snap = MappedSnapshot::Open(path);
  if (!snap.ok()) return snap.status();
  return AdoptStore(
      std::make_shared<const MappedSnapshot>(std::move(*snap)));
}

}  // namespace sdss::persist
