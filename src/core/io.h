// Filesystem primitives for the durable persistence layer.
//
// Thin Status-returning wrappers over POSIX: everything the persist
// module (and anything else that touches disk) needs, in one place, so
// error handling and durability discipline (fsync-before-rename) cannot
// diverge between call sites. No other core header touches the
// filesystem.

#ifndef SDSS_CORE_IO_H_
#define SDSS_CORE_IO_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.h"

namespace sdss {

/// A read-only memory mapping of a whole regular file (mmap(2),
/// PROT_READ | MAP_PRIVATE). Move-only; the destructor unmaps. The view
/// stays valid even if the file is later unlinked (POSIX keeps mapped
/// pages alive), but bytes changed by a concurrent writer are
/// unspecified -- map only immutably written files (temp + rename).
class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile();

  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// Maps `path` read-only. An empty file maps to a valid empty view.
  /// Advises the kernel the mapping will be read front to back (madvise
  /// MADV_SEQUENTIAL -- aggressive readahead for scan workloads).
  static Result<MappedFile> Open(const std::string& path);

  bool valid() const { return mapped_; }
  const char* data() const { return static_cast<const char*>(addr_); }
  size_t size() const { return size_; }
  std::string_view view() const {
    return std::string_view(data(), size_);
  }

 private:
  void* addr_ = nullptr;
  size_t size_ = 0;
  bool mapped_ = false;
};

/// True if `path` names an existing file or directory.
bool PathExists(const std::string& path);

/// mkdir -p: creates `path` and any missing parents. OK if it already
/// exists as a directory.
Status CreateDirs(const std::string& path);

/// Regular-file size in bytes; NotFound / IOError on failure.
Result<uint64_t> FileSize(const std::string& path);

/// Reads a whole regular file into a string.
Result<std::string> ReadFileToString(const std::string& path);

/// Durably writes `data` as `path`: writes `path`.tmp, fsyncs it,
/// renames over `path`, then fsyncs the parent directory -- so after an
/// OK return the file survives a crash, and a crash mid-write leaves at
/// worst a `.tmp` leftover, never a half-written `path`.
Status WriteFileDurable(const std::string& path, const std::string& data);

/// Deletes a file. OK if it does not exist (idempotent cleanup).
Status RemoveFile(const std::string& path);

/// Names (not paths) of the entries of a directory, sorted. "." and ".."
/// are omitted. NotFound when the directory does not exist.
Result<std::vector<std::string>> ListDir(const std::string& path);

/// Fsyncs a directory, making previously created/renamed entries
/// durable.
Status SyncDir(const std::string& path);

/// A set of numbered files `<prefix>NNNNNN<suffix>` in one directory --
/// the layout of the journal's segments and the event log's files.
/// Members are numbered from 1 and zero-padded to six digits; a wider
/// number widens the name, and ordering stays numeric either way. This
/// type owns naming, listing and pruning only: durability (O_EXCL,
/// fsync, directory sync) stays with each owner. The prefix and suffix
/// are viewed, not copied: pass string literals.
class NumberedFiles {
 public:
  constexpr NumberedFiles(std::string_view prefix, std::string_view suffix)
      : prefix_(prefix), suffix_(suffix) {}

  /// The file name of member `n`.
  std::string Name(uint64_t n) const;
  /// The number `name` carries, or 0 when it is not a member: wrong
  /// prefix or suffix, an empty or non-digit number, or number 0.
  uint64_t Parse(std::string_view name) const;
  /// Member names in `dir`, ascending by number. Empty when the
  /// directory does not exist.
  std::vector<std::string> List(const std::string& dir) const;
  /// One past the highest member number in `dir`; 1 when it has none.
  uint64_t Next(const std::string& dir) const;
  /// Removes the lowest-numbered members of `dir` until at most `keep`
  /// remain. Best-effort: a failed unlink is skipped.
  void PruneOldest(const std::string& dir, size_t keep) const;

 private:
  std::string_view prefix_;
  std::string_view suffix_;
};

/// Validates `name` as a single on-disk path component: non-empty, at
/// most 64 bytes, no '/', '\\', or NUL, no leading '.', and no ".."
/// anywhere (so a name can never escape or hide inside its directory).
/// `what` labels the error message
/// ("mydb table name"). Always kInvalidArgument on rejection -- the
/// parser and archive::MyDb both gate on this one function so the two
/// layers cannot disagree.
Status ValidatePathComponent(const std::string& name, const char* what);

}  // namespace sdss

#endif  // SDSS_CORE_IO_H_
