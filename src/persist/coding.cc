#include "persist/coding.h"

#include <cstring>

namespace sdss::persist {

void PutFixed8(std::string* dst, uint8_t v) {
  dst->push_back(static_cast<char>(v));
}

void PutFixed32(std::string* dst, uint32_t v) {
  char buf[4];
  EncodeFixed32(buf, v);
  dst->append(buf, 4);
}

void EncodeFixed32(char* dst, uint32_t v) {
  dst[0] = static_cast<char>(v);
  dst[1] = static_cast<char>(v >> 8);
  dst[2] = static_cast<char>(v >> 16);
  dst[3] = static_cast<char>(v >> 24);
}

void PutFixed64(std::string* dst, uint64_t v) {
  PutFixed32(dst, static_cast<uint32_t>(v));
  PutFixed32(dst, static_cast<uint32_t>(v >> 32));
}

void PutLengthPrefixed(std::string* dst, std::string_view v) {
  PutFixed32(dst, static_cast<uint32_t>(v.size()));
  dst->append(v.data(), v.size());
}

void PutRaw(std::string* dst, const void* data, size_t bytes) {
  dst->append(static_cast<const char*>(data), bytes);
}

bool Cursor::GetFixed8(uint8_t* v) {
  if (remaining() < 1) return false;
  *v = static_cast<uint8_t>(data_[pos_++]);
  return true;
}

bool Cursor::GetFixed32(uint32_t* v) {
  if (remaining() < 4) return false;
  const auto* p =
      reinterpret_cast<const unsigned char*>(data_.data() + pos_);
  *v = static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
       static_cast<uint32_t>(p[2]) << 16 |
       static_cast<uint32_t>(p[3]) << 24;
  pos_ += 4;
  return true;
}

bool Cursor::GetFixed64(uint64_t* v) {
  uint32_t lo, hi;
  if (remaining() < 8 || !GetFixed32(&lo) || !GetFixed32(&hi)) return false;
  *v = static_cast<uint64_t>(lo) | static_cast<uint64_t>(hi) << 32;
  return true;
}

bool Cursor::GetLengthPrefixed(std::string_view* v) {
  uint32_t len;
  size_t saved = pos_;
  if (!GetFixed32(&len)) return false;
  if (remaining() < len) {
    pos_ = saved;
    return false;
  }
  *v = data_.substr(pos_, len);
  pos_ += len;
  return true;
}

bool Cursor::GetRaw(void* out, size_t bytes) {
  if (remaining() < bytes) return false;
  std::memcpy(out, data_.data() + pos_, bytes);
  pos_ += bytes;
  return true;
}

bool Cursor::Skip(size_t bytes) {
  if (remaining() < bytes) return false;
  pos_ += bytes;
  return true;
}

}  // namespace sdss::persist
