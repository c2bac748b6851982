// Binary columnar snapshots of catalog::ObjectStore.
//
// The checkpoint half of the persistence subsystem: a snapshot is one
// self-verifying file holding a whole store -- every PhotoObj field as
// a per-container column, containers in trixel order -- so a recovered
// store is bit-exact (re-encoding it yields the identical byte string)
// and scans at the same speed as the store that was written: container
// clustering and contiguity survive the round trip, and the in-memory
// containers are these same columns (catalog::ForEachColumn lists their
// order once, for the writer and both readers). The tag partition is a
// view over the photo columns, so only its build_tags flag is stored.
//
// On-disk format (see BUILDING.md "On-disk formats"):
//
//   header   := magic "SDSSSNP1" | version:u32 | cluster_level:u32 |
//               build_tags:u8 | container_count:u64 | object_count:u64 |
//               epoch:u64                                 (version >= 2)
//   container:= trixel:u64 | n:u64 | columns
//   columns  := obj_id[n]:u64 | x[n]:f64 | y[n]:f64 | z[n]:f64 |
//               ra[n]:f64 | dec[n]:f64 | mag[5][n]:f32 |
//               mag_err[5][n]:f32 | profile[8][n]:f32 | petro[n]:f32 |
//               sb[n]:f32 | redshift[n]:f32 | flags[n]:u32 |
//               class[n]:u8 | htm_leaf[n]:u64
//   trailer  := crc:u32   (CRC-32 of every preceding byte)
//
// All integers and IEEE floats are little-endian. Files are written
// durably (temp + fsync + rename), so a crash mid-write leaves at worst
// a `.tmp` leftover and never a readable-but-partial snapshot.

#ifndef SDSS_PERSIST_SNAPSHOT_H_
#define SDSS_PERSIST_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "catalog/object_store.h"
#include "core/io.h"
#include "core/status.h"
#include "htm/htm_id.h"

namespace sdss::persist {

/// Decoded snapshot header (a cheap peek that reads no column data).
struct SnapshotHeader {
  uint32_t version = 0;
  int cluster_level = 0;
  bool build_tags = false;
  uint64_t container_count = 0;
  uint64_t object_count = 0;
  /// The store's mutation generation at encode time (see
  /// catalog::ObjectStore::epoch). Version 1 files predate the field and
  /// decode as epoch 0.
  uint64_t epoch = 0;
};

/// Serializes `store` into the snapshot byte format (header + columns +
/// CRC trailer). Deterministic: equal stores encode to equal bytes.
std::string EncodeSnapshot(const catalog::ObjectStore& store);

/// Decodes and verifies a snapshot byte string (magic, version, CRC,
/// exact length, container trixels valid, at the header's cluster level
/// and strictly ascending) into a freshly built store whose containers
/// own copies of the columns. Corruption anywhere -- truncation, a
/// flipped bit, trailing garbage, a malformed directory -- fails with
/// kCorruption; no partial store is ever returned.
Result<catalog::ObjectStore> DecodeSnapshot(std::string_view data);

/// Header of an encoded snapshot without decoding the columns.
Result<SnapshotHeader> DecodeSnapshotHeader(std::string_view data);

/// Writes snapshots durably to one path.
class SnapshotWriter {
 public:
  explicit SnapshotWriter(std::string path) : path_(std::move(path)) {}

  /// Encodes `store` and durably writes it (temp + fsync + rename).
  Status Write(const catalog::ObjectStore& store);

  const std::string& path() const { return path_; }
  /// Size of the last successful Write, 0 before one.
  uint64_t bytes_written() const { return bytes_written_; }

 private:
  std::string path_;
  uint64_t bytes_written_ = 0;
};

/// Reads and verifies snapshots from one path.
class SnapshotReader {
 public:
  explicit SnapshotReader(std::string path) : path_(std::move(path)) {}

  /// Loads the whole store. Any corruption yields kCorruption and no
  /// store.
  Result<catalog::ObjectStore> Read() const;

  /// Verifies the file and returns only its header.
  Result<SnapshotHeader> ReadHeader() const;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// A verified snapshot file held as a read-only memory mapping, with
/// every container's columns indexed as zero-copy views into the mapped
/// bytes. Open() pays one sequential pass for the CRC plus a directory
/// walk; no object is ever materialized. The walk is DecodeSnapshot's
/// own, so both readers reject exactly the same files, all with
/// kCorruption.
class MappedSnapshot {
 public:
  /// Maps and verifies `path`, indexing per-container column views.
  static Result<MappedSnapshot> Open(const std::string& path);

  const SnapshotHeader& header() const { return header_; }
  size_t container_count() const { return blocks_.size(); }

  /// The indexed containers, trixel-ascending. Views stay valid only
  /// while this MappedSnapshot (or a sharing store) is alive.
  const std::vector<std::pair<htm::HtmId, catalog::ColumnarBlock>>&
  blocks() const {
    return blocks_;
  }

 private:
  MappedSnapshot() = default;

  MappedFile file_;
  SnapshotHeader header_;
  std::vector<std::pair<htm::HtmId, catalog::ColumnarBlock>> blocks_;
};

/// Builds an ObjectStore whose containers are columnar views into
/// `snap`'s mapping -- the zero-rebuild cold-start path. The store (and
/// every container copy extracted from it later) shares ownership of
/// the mapping, so the views outlive the caller's handle.
Result<catalog::ObjectStore> AdoptStore(
    std::shared_ptr<const MappedSnapshot> snap);

/// Open + AdoptStore in one call: maps `path` and returns a store that
/// serves column scans straight off the file's pages.
Result<catalog::ObjectStore> MapSnapshotStore(const std::string& path);

}  // namespace sdss::persist

#endif  // SDSS_PERSIST_SNAPSHOT_H_
