// Canonical Huffman coding: length-limited code construction
// (package-merge), canonical code assignment (RFC 1951 rules), and a
// table-driven decoder.
//
// The encoder side is on the checkpoint hot path: a dynamic deflate
// block builds three codes, so construction must cost microseconds, not
// the vector-per-node package-merge it replaced. Construction walks
// index-linked levels with no per-node allocation and returns the same
// lengths bit for bit (same leaf sort, same merge tie rule), and codes
// are stored pre-reversed so emitting a symbol is a single bit-writer
// put. Neither change moves an output byte.
//
// The decoder side is on the restart path: one direct table per code,
// whose entries already carry the length and distance bases, so inflate
// reads a symbol with one refill, one load and one shift.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/bitio.hpp"

namespace wck {

/// Computes optimal length-limited Huffman code lengths for the given
/// symbol frequencies using the package-merge algorithm.
///
/// Symbols with zero frequency get length 0 (absent). If exactly one
/// symbol has nonzero frequency it gets length 1. Throws
/// InvalidArgumentError if `max_length` is outside [1, 15] or the
/// alphabet cannot fit in `max_length` bits.
[[nodiscard]] std::vector<std::uint8_t> build_code_lengths(std::span<const std::uint64_t> freqs,
                                                           int max_length);

/// Canonical Huffman codes derived from code lengths, following the
/// RFC 1951 assignment (shorter codes first; ties broken by symbol order).
struct CanonicalCode {
  /// Code bits per symbol in stream order: the MSB-first canonical code
  /// reversed once here, so emission packs it LSB-first as it stands.
  std::vector<std::uint16_t> stream_codes;
  std::vector<std::uint8_t> lengths;  ///< 0 = symbol absent.

  [[nodiscard]] static CanonicalCode from_lengths(std::span<const std::uint8_t> lengths);

  /// Writes the code for `symbol` (must be present) to the bit stream.
  void emit(BitWriter& bw, int symbol) const {
    bw.put(stream_codes[static_cast<std::size_t>(symbol)],
           lengths[static_cast<std::size_t>(symbol)]);
  }
};

/// Decodes canonical Huffman codes from an LSB-first DEFLATE bit stream
/// with one direct lookup table.
///
/// The table is indexed by the next min(longest code, 11) stream bits (9
/// for distances; code-length codes are at most 7 bits long). Every entry
/// is resolved when the table is built: it holds the code length and
/// what the symbol means to the caller (a plain symbol, a DEFLATE
/// literal, end of block, or a length or distance base with its
/// extra-bit count), so the inflate loop never consults the RFC 1951
/// tables per symbol. Longer codes, the symbols DEFLATE reserves
/// (literal/length 286-287, distance 30-31) and the unassigned slots of
/// an incomplete code share a slow entry; lookup() finishes those with a
/// canonical walk over bits already in hand and throws FormatError for
/// the invalid ones.
class HuffmanDecoder {
 public:
  /// What the symbols of a code stand for.
  enum class Alphabet : std::uint8_t {
    kSymbols,   ///< plain symbols (bytes, code-length codes)
    kLitLen,    ///< DEFLATE literal/length symbols 0..287
    kDistance,  ///< DEFLATE distance symbols 0..31
  };

  /// `extra` values at or above kLiteral tag an entry's kind; below it,
  /// the entry is a length or distance base followed by `extra` bits.
  static constexpr std::uint8_t kLiteral = 16;     ///< value: symbol or byte
  static constexpr std::uint8_t kEndOfBlock = 17;  ///< DEFLATE symbol 256
  static constexpr std::uint8_t kSlow = 18;        ///< table only: see lookup()

  /// One decoded symbol, as the table stores it.
  struct Entry {
    std::uint16_t value;  ///< the symbol, literal byte, or length/distance base
    std::uint8_t length;  ///< code length in bits
    std::uint8_t extra;   ///< extra bits that follow the code, or a kind tag
  };

  /// An empty code, to be filled by build(); decoding it throws.
  explicit HuffmanDecoder(Alphabet alphabet = Alphabet::kSymbols) : alphabet_(alphabet) {}

  /// Builds a decoder from per-symbol code lengths (see build()).
  explicit HuffmanDecoder(std::span<const std::uint8_t> lengths, bool allow_incomplete = false,
                          Alphabet alphabet = Alphabet::kSymbols)
      : alphabet_(alphabet) {
    build(lengths, allow_incomplete);
  }

  /// Replaces the code with the one given by per-symbol code lengths.
  ///
  /// `allow_incomplete` permits under-full codes with at most one symbol
  /// (DEFLATE allows a degenerate distance code); otherwise a code that
  /// does not exactly fill the Kraft budget is rejected as FormatError.
  void build(std::span<const std::uint8_t> lengths, bool allow_incomplete = false);

  /// Decodes the symbol at the start of `bits` (the next stream bits,
  /// LSB-first, at least 15 of them valid). Consumes nothing. Throws
  /// FormatError on an invalid or reserved code.
  [[nodiscard]] Entry lookup(std::uint64_t bits) const {
    const Entry e = table_[bits & mask_];
    return e.extra == kSlow ? resolve(bits) : e;
  }

  /// Reads one symbol from the stream and returns its entry's value (the
  /// symbol itself for Alphabet::kSymbols). Throws FormatError on an
  /// invalid code.
  [[nodiscard]] int decode(BitReader& br) const {
    br.refill();
    const Entry e = lookup(br.bits());
    br.consume(e.length);
    return e.value;
  }

 private:
  [[nodiscard]] Entry resolve(std::uint64_t bits) const;

  Alphabet alphabet_;
  std::vector<Entry> table_{Entry{0, 0, kSlow}};  ///< 2^table-bits entries
  std::uint64_t mask_ = 0;                       ///< table index mask
  std::vector<std::uint16_t> sym_by_code_;  ///< symbols sorted by (len, symbol).
  std::uint32_t first_code_[16] = {};       ///< first canonical code of each length.
  std::uint32_t first_index_[16] = {};      ///< index into sym_by_code_ per length.
  std::uint32_t count_[16] = {};            ///< number of codes of each length.
  int max_len_ = 0;
};

}  // namespace wck
