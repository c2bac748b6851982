// Little-endian binary encoding for journal records and snapshot blocks.
//
// Writers append onto a std::string; readers consume from a Cursor over
// a string_view. Every Get* checks bounds and returns false on underrun,
// so a torn or corrupted byte stream decodes to a clean error, never out
// of bounds.

#ifndef SDSS_PERSIST_CODING_H_
#define SDSS_PERSIST_CODING_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace sdss::persist {

void PutFixed8(std::string* dst, uint8_t v);
void PutFixed32(std::string* dst, uint32_t v);
/// Writes the 4 bytes PutFixed32 appends into `dst[0..3]`.
void EncodeFixed32(char* dst, uint32_t v);
void PutFixed64(std::string* dst, uint64_t v);
/// u32 length prefix + raw bytes.
void PutLengthPrefixed(std::string* dst, std::string_view v);

/// Appends `count` elements of `elem_size` bytes each as raw
/// little-endian memory (host is assumed little-endian; the snapshot
/// header magic would read back reversed on a big-endian host and fail
/// loudly rather than decode garbage).
void PutRaw(std::string* dst, const void* data, size_t bytes);

/// Bounds-checked sequential reader.
class Cursor {
 public:
  explicit Cursor(std::string_view data) : data_(data) {}

  bool GetFixed8(uint8_t* v);
  bool GetFixed32(uint32_t* v);
  bool GetFixed64(uint64_t* v);
  bool GetLengthPrefixed(std::string_view* v);
  /// Copies `bytes` raw bytes into `out`.
  bool GetRaw(void* out, size_t bytes);
  /// Skips `bytes` without copying.
  bool Skip(size_t bytes);

  size_t remaining() const { return data_.size() - pos_; }
  size_t position() const { return pos_; }
  bool done() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace sdss::persist

#endif  // SDSS_PERSIST_CODING_H_
