// LZ77 string matching over a 32 KiB sliding window (the DEFLATE model):
// hash-chain candidate search with greedy parsing plus one-step lazy
// matching, as in zlib.
//
// The chains are zlib's layout: 32-bit heads and a 32 KiB ring of links
// indexed by position mod the window, kept in per-thread scratch that
// every call reuses (a call touches no allocation proportional to its
// input beyond the token vector). Matches extend eight bytes at a time,
// candidates that cannot beat the current best are rejected on two
// 16-bit compares, and a longer lazy match is carried forward instead of
// searched for twice. None of this changes a token: the parse is the one
// the plain hash-chain search makes, so deflate's output bytes are fixed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace wck {

/// One parsed element: either a literal byte or a (length, distance)
/// back-reference. Packed into 32 bits: bit 31 set for matches, bits
/// 16..23 hold length-3, bits 0..15 hold distance-1.
class Lz77Token {
 public:
  static Lz77Token literal(std::uint8_t byte) noexcept { return Lz77Token(byte); }

  static Lz77Token match(int length, int distance) noexcept {
    return Lz77Token(0x80000000u | (static_cast<std::uint32_t>(length - 3) << 16) |
                     static_cast<std::uint32_t>(distance - 1));
  }

  [[nodiscard]] bool is_match() const noexcept { return (raw_ & 0x80000000u) != 0; }
  [[nodiscard]] std::uint8_t literal_byte() const noexcept {
    return static_cast<std::uint8_t>(raw_ & 0xFFu);
  }
  [[nodiscard]] int length() const noexcept { return static_cast<int>((raw_ >> 16) & 0xFFu) + 3; }
  [[nodiscard]] int distance() const noexcept { return static_cast<int>(raw_ & 0xFFFFu) + 1; }

 private:
  explicit Lz77Token(std::uint32_t raw) noexcept : raw_(raw) {}
  std::uint32_t raw_;
};

/// Matching effort knobs (indexed by compression level 1..9).
struct Lz77Params {
  int max_chain = 128;    ///< candidates examined per position
  int nice_length = 128;  ///< stop searching once a match this long is found
  int lazy_threshold = 16;  ///< only try lazy matching if current match is shorter
};

/// Returns the parameters zlib-style levels map to.
[[nodiscard]] Lz77Params lz77_params_for_level(int level);

/// Parses `input` into a token stream. Deterministic for fixed input and
/// params. The token stream always reproduces `input` exactly. Throws
/// InvalidArgumentError for inputs of 4 GiB or more (positions are 32-bit).
[[nodiscard]] std::vector<Lz77Token> lz77_parse(std::span<const std::byte> input,
                                                const Lz77Params& params);

}  // namespace wck
