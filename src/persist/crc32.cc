#include "persist/crc32.h"

#include <array>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define SDSS_CRC32_CLMUL 1
// Compiles one function for PCLMULQDQ whatever the build's -march; call
// such a function only once DetectClmul() said yes.
#define SDSS_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))
#endif

namespace sdss::persist {
namespace {

std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

#ifdef SDSS_CRC32_CLMUL

// Carry-less-multiply folding after Gopal et al., "Fast CRC Computation
// for Generic Polynomials Using PCLMULQDQ Instruction" (Intel, 2009),
// with the bit-reflected constants of the IEEE polynomial
// P = 0x104C11DB7 that zlib uses. Each k is x^n mod P, bit-reflected
// and shifted left one bit so a 64x64 product lands where the reflected
// fold expects it; P and mu are the 33-bit values, bit-reflected.
constexpr uint64_t kK1 = 0x154442BD4;  // x^(4*128+32) mod P
constexpr uint64_t kK2 = 0x1C6E41596;  // x^(4*128-32) mod P
constexpr uint64_t kK3 = 0x1751997D0;  // x^(128+32) mod P
constexpr uint64_t kK4 = 0x0CCAA009E;  // x^(128-32) mod P
constexpr uint64_t kK5 = 0x163CD6124;  // x^64 mod P
constexpr uint64_t kP = 0x1DB710641;   // P
constexpr uint64_t kMu = 0x1F7011641;  // mu = floor(x^64 / P)

bool DetectClmul() {
  __builtin_cpu_init();  // Crc32 may run before the CPU-model constructor.
  if (!__builtin_cpu_supports("pclmul")) return false;
  return __builtin_cpu_supports("sse4.1") != 0;
}

SDSS_CLMUL_TARGET inline __m128i Load(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// `acc` carried forward by the distance `k` encodes, plus the next 16
/// bytes `next`.
SDSS_CLMUL_TARGET inline __m128i Fold(__m128i acc, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

/// Advances the raw CRC register `c` over `n` bytes; `n` is a multiple
/// of 16 and at least 64. Four 16-byte lanes fold 64 bytes a step, then
/// merge into one lane, which folds the remaining 16-byte blocks and is
/// reduced to 32 bits.
SDSS_CLMUL_TARGET uint32_t ClmulCrc(const uint8_t* p, size_t n, uint32_t c) {
  const __m128i seed = _mm_cvtsi32_si128(static_cast<int>(c));
  __m128i x0 = _mm_xor_si128(Load(p), seed);
  __m128i x1 = Load(p + 16);
  __m128i x2 = Load(p + 32);
  __m128i x3 = Load(p + 48);
  p += 64;
  n -= 64;

  const __m128i k1k2 = _mm_set_epi64x(kK2, kK1);
  for (; n >= 64; p += 64, n -= 64) {
    x0 = Fold(x0, k1k2, Load(p));
    x1 = Fold(x1, k1k2, Load(p + 16));
    x2 = Fold(x2, k1k2, Load(p + 32));
    x3 = Fold(x3, k1k2, Load(p + 48));
  }

  const __m128i k3k4 = _mm_set_epi64x(kK4, kK3);
  x0 = Fold(x0, k3k4, x1);
  x0 = Fold(x0, k3k4, x2);
  x0 = Fold(x0, k3k4, x3);
  for (; n >= 16; p += 16, n -= 16) x0 = Fold(x0, k3k4, Load(p));

  // 128 -> 64 bits: the low half times x^96 onto the high half, then
  // the low 32 bits of that times x^64 onto the rest.
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  const __m128i k5 = _mm_set_epi64x(0, kK5);
  __m128i t = _mm_clmulepi64_si128(x0, k3k4, 0x10);
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8), t);
  t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00);
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4), t);

  // Barrett reduction 64 -> 32 bits: the quotient by P comes from a
  // multiply by mu, and x0 minus quotient * P leaves the remainder in
  // the second 32-bit word.
  const __m128i poly = _mm_set_epi64x(kMu, kP);
  t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, t), 1));
}

#endif  // SDSS_CRC32_CLMUL

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  static const std::array<uint32_t, 256> kTable = MakeTable();
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
#ifdef SDSS_CRC32_CLMUL
  static const bool kClmul = DetectClmul();
  if (kClmul && size >= 64) {
    // The fold takes whole 16-byte blocks; the table finishes the tail.
    const size_t folded = size & ~size_t{15};
    c = ClmulCrc(p, folded, c);
    p += folded;
    size -= folded;
  }
#endif
  for (size_t i = 0; i < size; ++i) {
    c = kTable[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace sdss::persist
