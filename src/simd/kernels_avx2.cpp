// AVX2 kernels. This TU is the only one compiled with -mavx2 and
// -mpclmul (and nothing more: no FMA — fused contraction would break
// bit-identity of separately rounded add-then-multiply sequences).
//
// Only kernels that beat the scalar reference by >= 1.5x in
// bench/micro_kernels live here. The table's other slots point at the
// portable functions (f64 pack/unpack).
//
// Bit-identity notes, mirrored in tests/simd_test.cpp:
//  * _mm256_min_pd(x, acc) computes (x < acc) ? x : acc and returns the
//    second operand when either is NaN — exactly the scalar fold
//    `mn = (v < mn) ? v : mn`: NaN inputs are ignored, a NaN seed is
//    sticky. Seeding every lane with v[0] (not the first vector) keeps
//    the NaN-seed semantics identical to the sequential fold.
//  * ±0: which zero a lane keeps depends on the order it saw them, so
//    range_min_max canonicalizes a ±0.0 result to +0.0 exactly as the
//    scalar reference does; lane order cannot leak into the output.
//  * grid index: clamping x into [0, divisions-1] in the double domain
//    and then truncating equals floor-then-clamp for every input the
//    contract defines (truncation == floor once x >= 1; max_pd(x, 0)
//    maps NaN and negatives to 0; min_pd clamps +inf and overflow).
//  * bitmap_pack_ge0 and adler32 are integer arithmetic
//    and pure data movement, so equality with scalar is exact by
//    construction.
//  * crc32 is carry-less arithmetic over GF(2): the folded register is
//    congruent to the table-driven one modulo the CRC polynomial, and
//    the Barrett step returns the unique 32-bit remainder, so the value
//    equals slice-by-8's exactly.
#include "simd/kernels.hpp"

#if defined(__x86_64__) && defined(__AVX2__) && defined(__PCLMUL__)

#include <immintrin.h>

namespace wck::simd::detail {
namespace {

void range_min_max(const double* v, std::size_t n, double* lo, double* hi) {
  __m256d vmn = _mm256_set1_pd(v[0]);
  __m256d vmx = vmn;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_loadu_pd(v + i);
    vmn = _mm256_min_pd(x, vmn);
    vmx = _mm256_max_pd(x, vmx);
  }
  alignas(32) double lmn[4];
  alignas(32) double lmx[4];
  _mm256_store_pd(lmn, vmn);
  _mm256_store_pd(lmx, vmx);
  double mn = lmn[0];
  double mx = lmx[0];
  for (int k = 1; k < 4; ++k) {
    mn = (lmn[k] < mn) ? lmn[k] : mn;
    mx = (mx < lmx[k]) ? lmx[k] : mx;
  }
  for (; i < n; ++i) {
    mn = (v[i] < mn) ? v[i] : mn;
    mx = (mx < v[i]) ? v[i] : mx;
  }
  if (mn == 0.0) mn = 0.0;
  if (mx == 0.0) mx = 0.0;
  *lo = mn;
  *hi = mx;
}

void grid_index_batch(const double* v, std::size_t n, double lo, double inv_width,
                      std::int32_t divisions, std::int32_t* out) {
  const __m256d vlo = _mm256_set1_pd(lo);
  const __m256d vinv = _mm256_set1_pd(inv_width);
  const __m256d vzero = _mm256_setzero_pd();
  const __m256d vtop = _mm256_set1_pd(static_cast<double>(divisions - 1));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_mul_pd(_mm256_sub_pd(_mm256_loadu_pd(v + i), vlo), vinv);
    // Operand order matters: max_pd returns its second operand on NaN,
    // so a NaN x maps to 0 like the scalar reference.
    const __m256d y = _mm256_min_pd(_mm256_max_pd(x, vzero), vtop);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), _mm256_cvttpd_epi32(y));
  }
  for (; i < n; ++i) {
    out[i] = grid_index_one(v[i], lo, inv_width, divisions);
  }
}

void bitmap_pack_ge0(const std::int32_t* idx, std::size_t n, std::uint64_t* words) {
  const std::size_t full = n / 64;
  for (std::size_t w = 0; w < full; ++w) {
    std::uint64_t bits = 0;
    for (std::size_t k = 0; k < 8; ++k) {
      const __m256i q =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + w * 64 + 8 * k));
      const int m = _mm256_movemask_ps(_mm256_castsi256_ps(q));
      bits |= static_cast<std::uint64_t>(~m & 0xFF) << (8 * k);
    }
    words[w] = bits;
  }
  if (n % 64 != 0) {
    std::uint64_t bits = 0;
    for (std::size_t i = full * 64; i < n; ++i) {
      if (idx[i] >= 0) bits |= 1ull << (i % 64);
    }
    words[full] = bits;
  }
}

void adler32_update(std::uint32_t* pa, std::uint32_t* pb, const unsigned char* p, std::size_t n) {
  constexpr std::uint32_t kMod = 65521;
  constexpr std::size_t kBlock = 5552;
  std::uint32_t a = *pa;
  std::uint32_t b = *pb;
  const __m256i zero = _mm256_setzero_si256();
  const __m256i ones16 = _mm256_set1_epi16(1);
  // Weight of byte i within a 32-byte group is 32 - i (setr lists byte 0
  // first). maddubs pairs fit int16: max 255*32 + 255*31 < 32768.
  const __m256i wts = _mm256_setr_epi8(32, 31, 30, 29, 28, 27, 26, 25, 24, 23, 22, 21, 20, 19,
                                       18, 17, 16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3,
                                       2, 1);
  while (n > 0) {
    std::size_t chunk = n < kBlock ? n : kBlock;
    n -= chunk;
    for (; chunk >= 32; chunk -= 32, p += 32) {
      const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
      const __m256i sad = _mm256_sad_epu8(v, zero);
      const __m256i w32 = _mm256_madd_epi16(_mm256_maddubs_epi16(v, wts), ones16);
      __m128i s4 = _mm_add_epi32(_mm256_castsi256_si128(sad), _mm256_extracti128_si256(sad, 1));
      s4 = _mm_add_epi32(s4, _mm_srli_si128(s4, 8));
      __m128i w4 = _mm_add_epi32(_mm256_castsi256_si128(w32), _mm256_extracti128_si256(w32, 1));
      w4 = _mm_add_epi32(w4, _mm_srli_si128(w4, 8));
      w4 = _mm_add_epi32(w4, _mm_srli_si128(w4, 4));
      // b after 32 sequential steps: b + 32*a + sum (32-i)*p[i]; the
      // uint32 totals match the scalar loop exactly (non-negative terms,
      // no wrap within a 5552-byte chunk).
      b += 32 * a + static_cast<std::uint32_t>(_mm_cvtsi128_si32(w4));
      a += static_cast<std::uint32_t>(_mm_cvtsi128_si32(s4));
    }
    adler32_tail(a, b, p, chunk);
    p += chunk;
    a %= kMod;
    b %= kMod;
  }
  *pa = a;
  *pb = b;
}

/// CRC-32 by carry-less multiplication, after Intel's "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction"
/// (Gopal et al., 2009), in the bit-reflected domain of 0xEDB88320:
/// fold four 128-bit lanes across 64-byte blocks, fold those lanes into
/// one, fold the remaining 16-byte blocks, then reduce 128 -> 64 -> 32
/// bits with a Barrett reduction. `state` and the result are the
/// running pre-inversion register, as for slice-by-8. Requires n >= 64
/// and n % 16 == 0.
std::uint32_t crc32_fold(std::uint32_t state, const unsigned char* p, std::size_t n) {
  // x^(4*128+32) mod P and x^(4*128-32) mod P, reflected (<<1).
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  // x^(128+32) mod P and x^(128-32) mod P.
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  // x^64 mod P.
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  // P' (the polynomial, reflected) and mu' = floor(x^64 / P), reflected.
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  const auto load = [](const unsigned char* q) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
  };
  // x * x^a + y: multiply the lane's halves by the two constants, xor in y.
  const auto fold = [](__m128i x, __m128i k, __m128i y) {
    const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
    const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
    return _mm_xor_si128(_mm_xor_si128(hi, lo), y);
  };

  __m128i x1 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x1 = fold(x1, k1k2, load(p));
    x2 = fold(x2, k1k2, load(p + 16));
    x3 = fold(x3, k1k2, load(p + 32));
    x4 = fold(x4, k1k2, load(p + 48));
  }
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = fold(x1, k3k4, load(p));

  // 128 -> 64 bits.
  __m128i x = _mm_xor_si128(_mm_srli_si128(x1, 8), _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x = _mm_xor_si128(_mm_srli_si128(x, 4), _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00));
  // Barrett reduction to 32 bits.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, t), 1));
}

/// Folds whole 16-byte blocks when there are at least 64 bytes and hands
/// the last n % 16 bytes (or a short buffer) to slice-by-8.
std::uint32_t crc32_update(std::uint32_t state, const unsigned char* p, std::size_t n) {
  if (n >= 64) {
    const std::size_t blocks = n & ~std::size_t{15};
    state = crc32_fold(state, p, blocks);
    p += blocks;
    n -= blocks;
  }
  return crc32_update_slice8(state, p, n);
}

constexpr KernelTable kAvx2Table{
    range_min_max, grid_index_batch, bitmap_pack_ge0, pack_f64_le,
    unpack_f64_le, crc32_update,     adler32_update,
};

}  // namespace

const KernelTable* avx2_table() noexcept { return &kAvx2Table; }

}  // namespace wck::simd::detail

#else  // built without AVX2 + PCLMULQDQ support: level not available

namespace wck::simd::detail {
const KernelTable* avx2_table() noexcept { return nullptr; }
}  // namespace wck::simd::detail

#endif
