// LSB-first bit-level I/O, as required by the DEFLATE bitstream format
// (RFC 1951: data elements are packed starting with the least-significant
// bit of each byte).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace wck {

/// Writes bits LSB-first into a byte buffer it owns. Bits collect in a
/// 64-bit accumulator and reach the buffer 32 at a time, so the bytes are
/// handed out only by finish(), which first flushes the remainder: no
/// caller can read a stream whose last bits are still in the accumulator.
class BitWriter {
 public:
  BitWriter() = default;
  /// Continues a stream after `prefix` (e.g. an already written header).
  explicit BitWriter(std::vector<std::byte> prefix) : out_(std::move(prefix)) {}

  /// Appends the low `count` bits of `bits` (0 <= count <= 32),
  /// least-significant bit first. `count == 0` writes nothing; counts
  /// outside [0, 32] violate the precondition and throw — `bits & mask`
  /// with a negative or oversized shift would otherwise be undefined.
  void put(std::uint32_t bits, int count) {
    check_count(count);
    if (count == 0) return;
    acc_ |= static_cast<std::uint64_t>(bits & mask(count)) << nbits_;
    nbits_ += count;
    if (nbits_ >= 32) {
      const std::size_t at = out_.size();
      out_.resize(at + 4);
      for (std::size_t i = 0; i < 4; ++i) {
        out_[at + i] = static_cast<std::byte>((acc_ >> (8 * i)) & 0xFFu);
      }
      acc_ >>= 32;
      nbits_ -= 32;
    }
  }

  /// Pads with zero bits to the next byte boundary.
  void align_to_byte() {
    while (nbits_ > 0) {
      out_.push_back(static_cast<std::byte>(acc_ & 0xFFu));
      acc_ >>= 8;
      nbits_ = nbits_ > 8 ? nbits_ - 8 : 0;
    }
  }

  /// Pads to a byte boundary and hands over the whole buffer; the writer
  /// is left empty.
  [[nodiscard]] std::vector<std::byte> finish() {
    align_to_byte();
    return std::exchange(out_, {});
  }

  /// Number of bits written so far (including unflushed ones).
  [[nodiscard]] std::size_t bit_count() const noexcept { return out_.size() * 8 + nbits_; }

  /// Reverses the low `length` bits of `v`.
  [[nodiscard]] static std::uint32_t reverse(std::uint32_t v, int length) noexcept {
    std::uint32_t r = 0;
    for (int i = 0; i < length; ++i) {
      r = (r << 1) | ((v >> i) & 1u);
    }
    return r;
  }

 private:
  static void check_count(int count) {
    if (count < 0 || count > 32) {
      throw InvalidArgumentError("BitWriter: bit count " + std::to_string(count) +
                                 " outside [0, 32]");
    }
  }

  /// Precondition: 1 <= count <= 32 (0 is handled before masking).
  [[nodiscard]] static std::uint32_t mask(int count) noexcept {
    return count >= 32 ? 0xFFFFFFFFu : ((1u << count) - 1u);
  }

  std::vector<std::byte> out_;
  std::uint64_t acc_ = 0;
  int nbits_ = 0;
};

/// Reads bits LSB-first from a byte span through a 64-bit buffer.
///
/// refill() tops the buffer up to at least kRefillBits bits. While 8 or
/// more input bytes remain it does so with one unaligned little-endian
/// load; near the end it takes the rest byte by byte and pads with zero
/// bytes, counting them. The padding lets a decoder read a whole
/// length/distance pair (at most 15 + 5 + 15 + 13 = 48 bits) after one
/// refill with no bounds check per read. Reading a padded bit is
/// truncation: overrun() reports it, get() and the tail refill throw on
/// it, and decoders test it where a block or stream ends.
class BitReader {
 public:
  /// Bits a refill() guarantees in the buffer.
  static constexpr int kRefillBits = 56;

  explicit BitReader(std::span<const std::byte> data) noexcept
      : in_(data.data()), end_(data.data() + data.size()) {}

  /// Tops the buffer up to at least kRefillBits bits. Throws FormatError
  /// if a padded bit was already consumed.
  void refill() {
    if (end_ - in_ >= 8) {
      // Bits at and above cnt_ already hold the start of in_[0], so the
      // overlapping OR rewrites them with the same values.
      buf_ |= load_le64(in_) << cnt_;
      in_ += (63 - cnt_) >> 3;
      cnt_ |= 56;
      return;
    }
    refill_tail();
  }

  /// The buffered bits, next stream bit in bit 0. Bits at and above the
  /// buffered count are unspecified.
  [[nodiscard]] std::uint64_t bits() const noexcept { return buf_; }

  /// Drops `count` buffered bits. Precondition: 0 <= count <= the number
  /// of buffered bits, which refill() makes at least kRefillBits.
  void consume(int count) noexcept {
    buf_ >>= count;
    cnt_ -= count;
  }

  /// Reads `count` bits (0 <= count <= 32), LSB-first. Throws
  /// InvalidArgumentError for a count outside that range and FormatError
  /// when the read runs past the end of the input.
  [[nodiscard]] std::uint32_t get(int count) {
    if (count < 0 || count > 32) {
      throw InvalidArgumentError("BitReader: bit count " + std::to_string(count) +
                                 " outside [0, 32]");
    }
    refill();
    const auto v = static_cast<std::uint32_t>(buf_ & ((std::uint64_t{1} << count) - 1));
    consume(count);
    if (overrun()) throw FormatError("bit stream truncated");
    return v;
  }

  /// True once a consumed bit was zero padding past the end of the input.
  [[nodiscard]] bool overrun() const noexcept { return overread_ * 8 > cnt_; }

  /// Discards buffered bits to realign on the next byte boundary.
  void align_to_byte() noexcept { consume(cnt_ % 8); }

  /// Copies `size` raw bytes (must be byte-aligned): hands the buffered
  /// whole bytes back to the input, then copies straight from it. Throws
  /// FormatError if the bits read so far or the copy run past the end.
  void read_aligned(std::byte* out, std::size_t size) {
    if (cnt_ % 8 != 0) throw FormatError("read_aligned while not byte-aligned");
    if (overrun()) throw FormatError("bit stream truncated");
    in_ -= cnt_ / 8 - overread_;
    buf_ = 0;
    cnt_ = 0;
    overread_ = 0;
    if (size > static_cast<std::size_t>(end_ - in_)) {
      throw FormatError("bit stream truncated (raw block)");
    }
    if (size > 0) std::memcpy(out, in_, size);
    in_ += size;
  }

 private:
  void refill_tail() {
    if (overrun()) throw FormatError("bit stream truncated");
    while (cnt_ < kRefillBits) {
      if (in_ != end_) {
        buf_ |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(*in_++)) << cnt_;
      } else {
        ++overread_;
      }
      cnt_ += 8;
    }
  }

  [[nodiscard]] static std::uint64_t load_le64(const std::byte* p) noexcept {
    std::uint64_t v = 0;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&v, p, sizeof v);
    } else {
      for (int i = 7; i >= 0; --i) v = (v << 8) | static_cast<std::uint8_t>(p[i]);
    }
    return v;
  }

  const std::byte* in_;
  const std::byte* end_;
  std::uint64_t buf_ = 0;
  int cnt_ = 0;       ///< buffered bits, the padded ones included
  int overread_ = 0;  ///< zero bytes padded past the end of the input
};

}  // namespace wck
