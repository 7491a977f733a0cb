// Portable scalar reference kernels. The AVX2 level is tested
// bit-identical against these; behavioral questions (NaN ordering, ±0
// canonicalization, clamping) are settled here and kernels_avx2.cpp
// mirrors the answers. The functions outside the anonymous namespace
// also fill the AVX2 table's slots that have no vector version.
#include <bit>
#include <cstring>

#include "simd/kernels.hpp"

namespace wck::simd::detail {

void pack_f64_le(const double* v, std::size_t n, std::byte* out) {
  if (n == 0) return;  // empty vectors hand memcpy a null data() pointer (UB)
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, v, n * sizeof(double));
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      const auto bits = std::bit_cast<std::uint64_t>(v[i]);
      for (std::size_t k = 0; k < 8; ++k) {
        out[8 * i + k] = static_cast<std::byte>((bits >> (8 * k)) & 0xFFu);
      }
    }
  }
}

void unpack_f64_le(const std::byte* in, std::size_t n, double* out) {
  if (n == 0) return;  // empty vectors hand memcpy a null data() pointer (UB)
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, in, n * sizeof(double));
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t bits = 0;
      for (std::size_t k = 0; k < 8; ++k) {
        bits |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(in[8 * i + k])) << (8 * k);
      }
      out[i] = std::bit_cast<double>(bits);
    }
  }
}

namespace {

void range_min_max(const double* v, std::size_t n, double* lo, double* hi) {
  double mn = v[0];
  double mx = v[0];
  for (std::size_t i = 1; i < n; ++i) {
    mn = (v[i] < mn) ? v[i] : mn;
    mx = (mx < v[i]) ? v[i] : mx;
  }
  // A ±0.0 extremum depends on encounter order; canonicalize so every
  // dispatch level agrees. (NaN != 0.0, so a sticky NaN passes through.)
  if (mn == 0.0) mn = 0.0;
  if (mx == 0.0) mx = 0.0;
  *lo = mn;
  *hi = mx;
}

void grid_index_batch(const double* v, std::size_t n, double lo, double inv_width,
                      std::int32_t divisions, std::int32_t* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = grid_index_one(v[i], lo, inv_width, divisions);
  }
}

void bitmap_pack_ge0(const std::int32_t* idx, std::size_t n, std::uint64_t* words) {
  const std::size_t nwords = (n + 63) / 64;
  for (std::size_t w = 0; w < nwords; ++w) words[w] = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (idx[i] >= 0) words[i / 64] |= 1ull << (i % 64);
  }
}

std::uint32_t crc32_update_slice4(std::uint32_t state, const unsigned char* p, std::size_t n) {
  const auto& tb = crc_tables().t;
  std::uint32_t c = state;
  while (n >= 4) {
    c ^= static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
    c = tb[3][c & 0xFFu] ^ tb[2][(c >> 8) & 0xFFu] ^ tb[1][(c >> 16) & 0xFFu] ^
        tb[0][(c >> 24) & 0xFFu];
    p += 4;
    n -= 4;
  }
  while (n-- > 0) {
    c = tb[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

void adler32_update(std::uint32_t* a, std::uint32_t* b, const unsigned char* p, std::size_t n) {
  constexpr std::uint32_t kMod = 65521;
  // Largest n such that 255*n*(n+1)/2 + (n+1)*(kMod-1) fits in 32 bits.
  constexpr std::size_t kBlock = 5552;
  std::uint32_t ra = *a;
  std::uint32_t rb = *b;
  while (n > 0) {
    const std::size_t chunk = n < kBlock ? n : kBlock;
    adler32_tail(ra, rb, p, chunk);
    ra %= kMod;
    rb %= kMod;
    p += chunk;
    n -= chunk;
  }
  *a = ra;
  *b = rb;
}

constexpr KernelTable kScalarTable{
    range_min_max, grid_index_batch,    bitmap_pack_ge0, pack_f64_le,
    unpack_f64_le, crc32_update_slice4, adler32_update,
};

}  // namespace

CrcTables::CrcTables() noexcept {
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t s = 1; s < t.size(); ++s) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFFu];
    }
  }
}

const CrcTables& crc_tables() noexcept {
  static const CrcTables kTables;
  return kTables;
}

std::uint32_t crc32_update_slice8(std::uint32_t state, const unsigned char* p, std::size_t n) {
  const auto& tb = crc_tables().t;
  std::uint32_t c = state;
  while (n >= 8) {
    const std::uint32_t lo =
        c ^ (static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
             (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24));
    const std::uint32_t hi = static_cast<std::uint32_t>(p[4]) |
                             (static_cast<std::uint32_t>(p[5]) << 8) |
                             (static_cast<std::uint32_t>(p[6]) << 16) |
                             (static_cast<std::uint32_t>(p[7]) << 24);
    c = tb[7][lo & 0xFFu] ^ tb[6][(lo >> 8) & 0xFFu] ^ tb[5][(lo >> 16) & 0xFFu] ^
        tb[4][(lo >> 24) & 0xFFu] ^ tb[3][hi & 0xFFu] ^ tb[2][(hi >> 8) & 0xFFu] ^
        tb[1][(hi >> 16) & 0xFFu] ^ tb[0][(hi >> 24) & 0xFFu];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    c = tb[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

const KernelTable* scalar_table() noexcept { return &kScalarTable; }

}  // namespace wck::simd::detail
