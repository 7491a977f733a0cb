// Deterministic byte-stream mutation for decoder-robustness testing.
//
// The fuzz driver (tools/wckpt_fuzz.cpp) and the sanitizer decode tests
// (tests/sanitize_decode_test.cpp) share this engine so that every
// corruption a CI run exercises can be reproduced locally from a seed.
// Mutations model the failure classes a checkpoint file actually sees:
// bit rot (flips), short writes (truncated files), torn writes (garbage
// tails), and targeted corruption of length/count fields.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace wck {

enum class MutationKind : std::uint8_t {
  kBitFlip = 0,       ///< flip 1..8 random bits anywhere
  kByteSmash,         ///< overwrite 1..4 bytes with random values
  kTruncate,          ///< drop a random-length tail (short write)
  kExtend,            ///< append 1..64 random bytes (torn / doubled write)
  kZeroWindow,        ///< zero a 1..8 byte window (length-field -> 0)
  kSaturateWindow,    ///< set a 1..8 byte window to 0xFF (huge lengths)
  kVarintBloat,       ///< set continuation bits to stretch a varint
  kSliceDelete,       ///< remove an interior slice (framing shift)
  kCount_             ///< sentinel
};

struct Mutation {
  MutationKind kind = MutationKind::kBitFlip;
  std::size_t offset = 0;  ///< first affected byte in the *input* buffer
  std::size_t span = 0;    ///< bytes affected / removed / appended
};

[[nodiscard]] inline const char* mutation_name(MutationKind k) noexcept {
  switch (k) {
    case MutationKind::kBitFlip: return "bit-flip";
    case MutationKind::kByteSmash: return "byte-smash";
    case MutationKind::kTruncate: return "truncate";
    case MutationKind::kExtend: return "extend";
    case MutationKind::kZeroWindow: return "zero-window";
    case MutationKind::kSaturateWindow: return "saturate-window";
    case MutationKind::kVarintBloat: return "varint-bloat";
    case MutationKind::kSliceDelete: return "slice-delete";
    case MutationKind::kCount_: break;
  }
  return "?";
}

[[nodiscard]] inline std::string describe(const Mutation& m) {
  return std::string(mutation_name(m.kind)) + " @" + std::to_string(m.offset) + "+" +
         std::to_string(m.span);
}

/// Applies one random mutation to `data` in place. `region_lo`/`region_hi`
/// (byte offsets, half-open) restrict where the mutation lands, so callers
/// can target one section of a container (header, bitmap, index bytes,
/// DEFLATE body, ...). Never leaves `data` empty unless it started empty.
inline Mutation mutate(Bytes& data, Xoshiro256& rng, std::size_t region_lo = 0,
                       std::size_t region_hi = SIZE_MAX) {
  Mutation m;
  if (data.empty()) return m;
  region_hi = std::min(region_hi, data.size());
  region_lo = std::min(region_lo, region_hi > 0 ? region_hi - 1 : 0);
  const std::size_t region_len = region_hi - region_lo;
  if (region_len == 0) return m;

  m.kind = static_cast<MutationKind>(
      rng.bounded(static_cast<std::uint64_t>(MutationKind::kCount_)));
  m.offset = region_lo + static_cast<std::size_t>(rng.bounded(region_len));

  auto window = [&](std::size_t max_span) {
    const std::size_t want = 1 + static_cast<std::size_t>(rng.bounded(max_span));
    return std::min(want, data.size() - m.offset);
  };

  switch (m.kind) {
    case MutationKind::kBitFlip: {
      m.span = 1 + static_cast<std::size_t>(rng.bounded(8));
      for (std::size_t i = 0; i < m.span; ++i) {
        const std::size_t pos = region_lo + static_cast<std::size_t>(rng.bounded(region_len));
        data[pos] ^= static_cast<std::byte>(1u << rng.bounded(8));
      }
      break;
    }
    case MutationKind::kByteSmash: {
      m.span = window(4);
      for (std::size_t i = 0; i < m.span; ++i) {
        data[m.offset + i] = static_cast<std::byte>(rng.bounded(256));
      }
      break;
    }
    case MutationKind::kTruncate: {
      // Cut anywhere from after the first byte up to dropping the tail.
      m.offset = 1 + static_cast<std::size_t>(rng.bounded(data.size()));
      m.span = data.size() - std::min(m.offset, data.size());
      data.resize(std::min(m.offset, data.size()));
      break;
    }
    case MutationKind::kExtend: {
      m.offset = data.size();
      m.span = 1 + static_cast<std::size_t>(rng.bounded(64));
      for (std::size_t i = 0; i < m.span; ++i) {
        data.push_back(static_cast<std::byte>(rng.bounded(256)));
      }
      break;
    }
    case MutationKind::kZeroWindow: {
      m.span = window(8);
      std::fill_n(data.begin() + static_cast<std::ptrdiff_t>(m.offset), m.span, std::byte{0});
      break;
    }
    case MutationKind::kSaturateWindow: {
      m.span = window(8);
      std::fill_n(data.begin() + static_cast<std::ptrdiff_t>(m.offset), m.span,
                  std::byte{0xFF});
      break;
    }
    case MutationKind::kVarintBloat: {
      // Force continuation bits so a varint parser walks into whatever
      // follows — the classic length-field corruption.
      m.span = window(8);
      for (std::size_t i = 0; i + 1 < m.span; ++i) {
        data[m.offset + i] |= std::byte{0x80};
      }
      break;
    }
    case MutationKind::kSliceDelete: {
      m.span = window(16);
      data.erase(data.begin() + static_cast<std::ptrdiff_t>(m.offset),
                 data.begin() + static_cast<std::ptrdiff_t>(m.offset + m.span));
      if (data.empty()) data.push_back(std::byte{0});
      break;
    }
    case MutationKind::kCount_:
      break;
  }
  return m;
}

}  // namespace wck
