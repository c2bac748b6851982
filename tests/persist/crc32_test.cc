// Crc32: the standard check value, and agreement with a bit-at-a-time
// reference at every length and alignment around the 64-byte threshold
// where the carry-less-multiply fold takes over from the table loop.

#include "persist/crc32.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace sdss::persist {
namespace {

constexpr uint32_t kReflectedPoly = 0xEDB88320u;

/// Advances the raw (inverted) CRC register by one byte, one bit at a
/// time: the definition, sharing nothing with the code under test.
uint32_t BitwiseStep(uint32_t c, uint8_t byte) {
  c ^= byte;
  for (int bit = 0; bit < 8; ++bit) {
    c = (c & 1) ? (c >> 1) ^ kReflectedPoly : c >> 1;
  }
  return c;
}

uint32_t BitwiseCrc32(const uint8_t* p, size_t n, uint32_t seed = 0) {
  uint32_t c = ~seed;
  for (size_t i = 0; i < n; ++i) c = BitwiseStep(c, p[i]);
  return ~c;
}

std::vector<uint8_t> RandomBytes(size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<uint8_t>(rng());
  return bytes;
}

TEST(Crc32Test, StandardCheckValue) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(check.data(), check.size()), 0xCBF43926u);
}

TEST(Crc32Test, EmptyInputIsZero) {
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  // An empty piece leaves a running checksum where it was.
  EXPECT_EQ(Crc32(nullptr, 0, 0xCBF43926u), 0xCBF43926u);
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  constexpr size_t kMaxLen = 1024;
  constexpr size_t kOffsets = 16;
  const std::vector<uint8_t> buf = RandomBytes(kMaxLen + kOffsets, 1);
  for (size_t offset = 0; offset < kOffsets; ++offset) {
    const uint8_t* p = buf.data() + offset;
    uint32_t reference = ~0u;  // The raw register after `len` bytes.
    for (size_t len = 0; len <= kMaxLen; ++len) {
      ASSERT_EQ(Crc32(p, len), ~reference)
          << "offset " << offset << ", length " << len;
      if (len < kMaxLen) reference = BitwiseStep(reference, p[len]);
    }
  }
}

TEST(Crc32Test, ChainingEqualsOneShotAtEverySplit) {
  const std::vector<uint8_t> buf = RandomBytes(1024, 2);
  const uint32_t whole = Crc32(buf.data(), buf.size());
  EXPECT_EQ(whole, BitwiseCrc32(buf.data(), buf.size()));
  for (size_t split = 0; split <= buf.size(); ++split) {
    const uint32_t head = Crc32(buf.data(), split);
    ASSERT_EQ(Crc32(buf.data() + split, buf.size() - split, head), whole)
        << "split at " << split;
  }
}

TEST(Crc32Test, LargeBufferMatchesReference) {
  const std::vector<uint8_t> buf = RandomBytes(8u << 20, 3);
  EXPECT_EQ(Crc32(buf.data(), buf.size()),
            BitwiseCrc32(buf.data(), buf.size()));
}

}  // namespace
}  // namespace sdss::persist
