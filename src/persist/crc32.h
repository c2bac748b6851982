// CRC-32 (IEEE 802.3 polynomial, the zlib/gzip checksum) for journal
// frames and snapshot trailers.
//
// On x86-64 CPUs with PCLMULQDQ (detected once, at the first call),
// inputs of 64 bytes or more fold 64 bytes a step with carry-less
// multiplies and finish their last few bytes in a table loop; shorter
// inputs and other CPUs take the table loop alone. Both paths give the
// same value for the same bytes, so what one machine writes another
// verifies.

#ifndef SDSS_PERSIST_CRC32_H_
#define SDSS_PERSIST_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace sdss::persist {

/// CRC-32 of `data`, continuing from `seed` (pass a previous return
/// value to checksum discontiguous pieces as one stream; 0 starts
/// fresh).
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

inline uint32_t Crc32(std::string_view data, uint32_t seed = 0) {
  return Crc32(data.data(), data.size(), seed);
}

}  // namespace sdss::persist

#endif  // SDSS_PERSIST_CRC32_H_
