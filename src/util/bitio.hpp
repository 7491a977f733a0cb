// LSB-first bit-level I/O, as required by the DEFLATE bitstream format
// (RFC 1951: data elements are packed starting with the least-significant
// bit of each byte).
#pragma once

#include <cstddef>
#include <cstdint>
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

/// Reads bits LSB-first from a byte span. Throws FormatError past the end.
class BitReader {
 public:
  explicit BitReader(std::span<const std::byte> data) : data_(data) {}

  /// Reads `count` bits (0 <= count <= 32), LSB-first.
  [[nodiscard]] std::uint32_t get(int count) {
    check_count(count);
    fill(count);
    if (nbits_ < count) throw FormatError("bit stream truncated");
    const auto v = static_cast<std::uint32_t>(acc_ & mask(count));
    acc_ >>= count;
    nbits_ -= count;
    return v;
  }

  /// Peeks up to `count` bits without consuming; if fewer remain, the
  /// missing high bits are zero. Used by table-driven Huffman decode.
  [[nodiscard]] std::uint32_t peek(int count) {
    check_count(count);
    fill(count);
    return static_cast<std::uint32_t>(acc_ & mask(count));
  }

  /// Consumes `count` bits previously peeked. Throws if not available.
  void consume(int count) {
    check_count(count);
    if (nbits_ < count) throw FormatError("bit stream truncated");
    acc_ >>= count;
    nbits_ -= count;
  }

  /// Number of whole bits still available.
  [[nodiscard]] std::size_t bits_remaining() const noexcept {
    return nbits_ + 8 * (data_.size() - pos_);
  }

  /// Discards buffered bits to realign on the next byte boundary.
  void align_to_byte() noexcept {
    const int drop = nbits_ % 8;
    acc_ >>= drop;
    nbits_ -= drop;
  }

  /// Copies `size` raw bytes (must be byte-aligned).
  void read_aligned(std::byte* out, std::size_t size) {
    if (nbits_ % 8 != 0) throw FormatError("read_aligned while not byte-aligned");
    while (nbits_ > 0 && size > 0) {
      *out++ = static_cast<std::byte>(acc_ & 0xFFu);
      acc_ >>= 8;
      nbits_ -= 8;
      --size;
    }
    if (size > data_.size() - pos_) throw FormatError("bit stream truncated (raw block)");
    for (std::size_t i = 0; i < size; ++i) *out++ = data_[pos_ + i];
    pos_ += size;
  }

  /// Byte offset of the next unread byte (after align_to_byte()).
  [[nodiscard]] std::size_t byte_position() const noexcept { return pos_ - nbits_ / 8; }

 private:
  static void check_count(int count) {
    if (count < 0 || count > 32) {
      throw InvalidArgumentError("BitReader: bit count " + std::to_string(count) +
                                 " outside [0, 32]");
    }
  }

  void fill(int want) noexcept {
    while (nbits_ < want && pos_ < data_.size()) {
      acc_ |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(data_[pos_++])) << nbits_;
      nbits_ += 8;
    }
  }

  [[nodiscard]] static std::uint64_t mask(int count) noexcept {
    return count >= 64 ? ~0ull : ((1ull << count) - 1ull);
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
  std::uint64_t acc_ = 0;
  int nbits_ = 0;
};

}  // namespace wck
