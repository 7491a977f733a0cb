// Internal glue between dispatch.cpp and the per-level kernel TUs.
// Only src/simd/ may include this header.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "simd/dispatch.hpp"

namespace wck::simd::detail {

/// Per-level tables. scalar_table() always exists; avx2_table()
/// returns nullptr when its translation unit was built without AVX2
/// (non-x86 targets, or a compiler without -mavx2 support).
[[nodiscard]] const KernelTable* scalar_table() noexcept;
[[nodiscard]] const KernelTable* avx2_table() noexcept;

// --- helpers shared by the level TUs so tails and references run the
// --- exact same code path.

/// Portable kernels the AVX2 table reuses: a vector version did not
/// reach 1.5x over these in bench/micro_kernels (memory-bound, or the
/// call sites pass too few elements to enter a vector loop), or, for
/// bitmap_select, did not make a restore faster end to end.
void haar_forward_pairs(const double* src, double* low, double* high, std::size_t pairs);
void haar_inverse_pairs(const double* low, const double* high, double* dst, std::size_t pairs);
void pack_f64_le(const double* v, std::size_t n, std::byte* out);
void unpack_f64_le(const std::byte* in, std::size_t n, double* out);
void bitmap_select(const std::uint64_t* words, std::size_t n, const double* averages,
                   const std::uint8_t* indices, const double* exact, double* out);

/// CRC-32 lookup tables (polynomial 0xEDB88320) for slice-by-N; the
/// scalar reference uses t[0..3], slice-by-8 uses all eight.
struct CrcTables {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  CrcTables() noexcept;
};
[[nodiscard]] const CrcTables& crc_tables() noexcept;

/// Slice-by-8 CRC-32 update (same polynomial => same values as the
/// scalar slice-by-4 reference by construction). The AVX2 table's
/// crc32_update; it uses no vector instructions.
[[nodiscard]] std::uint32_t crc32_update_slice8(std::uint32_t state, const unsigned char* p,
                                                std::size_t n);

// Kernel tail loops use wck::simd::grid_index_one (dispatch.hpp) so the
// single-value reference lives in exactly one place.

/// Adler-32 inner loop shared by the scalar reference and the AVX2
/// tail: the plain `a += p[i]; b += a` loop with NO modular reduction
/// (the caller reduces once per <= 5552-byte chunk).
inline void adler32_tail(std::uint32_t& a, std::uint32_t& b, const unsigned char* p,
                         std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    a += p[i];
    b += a;
  }
}

}  // namespace wck::simd::detail
