#include "deflate/huffman.hpp"

#include <algorithm>
#include <cstddef>
#include <string>

#include "deflate/deflate_tables.hpp"
#include "util/error.hpp"

namespace wck {

std::vector<std::uint8_t> build_code_lengths(std::span<const std::uint64_t> freqs,
                                             int max_length) {
  if (max_length < 1 || max_length > 15) {
    throw InvalidArgumentError("Huffman code length limit " + std::to_string(max_length) +
                               " outside [1, 15]");
  }
  const std::size_t n = freqs.size();
  std::vector<std::uint8_t> lengths(n, 0);

  struct Leaf {
    std::uint64_t weight;
    std::uint16_t symbol;
  };
  std::vector<Leaf> leaves;
  for (std::size_t i = 0; i < n; ++i) {
    if (freqs[i] > 0) leaves.push_back(Leaf{freqs[i], static_cast<std::uint16_t>(i)});
  }
  const std::size_t used = leaves.size();
  if (used == 0) return lengths;
  if (used == 1) {
    lengths[leaves[0].symbol] = 1;
    return lengths;
  }
  if (static_cast<std::size_t>(1) << max_length < used) {
    throw InvalidArgumentError("alphabet of " + std::to_string(used) +
                               " symbols cannot fit in " + std::to_string(max_length) + " bits");
  }
  // The leaf order among equal weights is part of the output: it decides
  // which of two tied symbols gets the longer code.
  std::sort(leaves.begin(), leaves.end(),
            [](const Leaf& a, const Leaf& b) { return a.weight < b.weight; });

  // Package-merge (coin collector). Level 0 is the sorted leaf list;
  // level k merges the leaves with the packages of level k-1, where
  // package j holds nodes 2j and 2j+1 of level k-1 (a leaf wins a weight
  // tie). Nodes are indices, not symbol lists: a level records only its
  // weights and which of its nodes are leaves. Merging keeps both inputs
  // in order, so any prefix of a level is a prefix of the leaves plus
  // packages 0..p-1, and those packages are the first 2p nodes one level
  // down.
  const std::size_t width = 2 * used;  // every level holds < 2 * used nodes
  const auto levels = static_cast<std::size_t>(max_length);
  std::vector<std::uint8_t> is_leaf(levels * width, 1);
  std::vector<std::uint64_t> prev(width);
  std::vector<std::uint64_t> cur(width);
  for (std::size_t i = 0; i < used; ++i) prev[i] = leaves[i].weight;
  std::size_t prev_size = used;
  for (std::size_t level = 1; level < levels; ++level) {
    const std::size_t packages = prev_size / 2;
    std::uint8_t* leaf_flags = is_leaf.data() + level * width;
    std::size_t li = 0;
    std::size_t pi = 0;
    std::size_t out = 0;
    while (li < used || pi < packages) {
      const std::uint64_t package_weight =
          pi < packages ? prev[2 * pi] + prev[2 * pi + 1] : 0;
      const bool take_leaf = pi >= packages || (li < used && leaves[li].weight <= package_weight);
      if (take_leaf) {
        cur[out] = leaves[li++].weight;
      } else {
        cur[out] = package_weight;
        ++pi;
      }
      leaf_flags[out++] = take_leaf ? 1 : 0;
    }
    prev_size = out;
    std::swap(prev, cur);
  }

  // The first 2*(used - 1) nodes of the top level are the solution; a
  // symbol's code length is the number of levels whose selected prefix
  // holds its leaf. Push the selection down one level at a time.
  std::size_t take = 2 * (used - 1);
  for (std::size_t level = levels; level-- > 0;) {
    const std::uint8_t* leaf_flags = is_leaf.data() + level * width;
    std::size_t leaf_count = 0;
    for (std::size_t i = 0; i < take; ++i) leaf_count += leaf_flags[i];
    for (std::size_t i = 0; i < leaf_count; ++i) ++lengths[leaves[i].symbol];
    take = 2 * (take - leaf_count);
  }
  return lengths;
}

CanonicalCode CanonicalCode::from_lengths(std::span<const std::uint8_t> lengths) {
  CanonicalCode cc;
  cc.lengths.assign(lengths.begin(), lengths.end());
  cc.stream_codes.assign(lengths.size(), 0);

  std::uint32_t bl_count[16] = {};
  int max_len = 0;
  for (const std::uint8_t l : lengths) {
    if (l > 15) throw InvalidArgumentError("code length exceeds 15 bits");
    ++bl_count[l];
    max_len = std::max<int>(max_len, l);
  }
  bl_count[0] = 0;

  std::uint32_t next_code[16] = {};
  std::uint32_t code = 0;
  for (int bits = 1; bits <= max_len; ++bits) {
    code = (code + bl_count[bits - 1]) << 1;
    next_code[bits] = code;
  }
  for (std::size_t s = 0; s < lengths.size(); ++s) {
    const std::uint8_t l = lengths[s];
    if (l != 0) {
      const std::uint32_t c = next_code[l]++;
      if (c >= (1u << l)) throw InvalidArgumentError("over-subscribed Huffman code lengths");
      cc.stream_codes[s] = static_cast<std::uint16_t>(BitWriter::reverse(c, l));
    }
  }
  return cc;
}

namespace {

using Entry = HuffmanDecoder::Entry;

/// What `symbol` of `alphabet` decodes to, code length left 0; reserved
/// DEFLATE symbols get the slow entry so that lookup() rejects them.
Entry symbol_entry(HuffmanDecoder::Alphabet alphabet, std::size_t symbol) {
  namespace dt = deflate_tables;
  const auto sym = static_cast<std::uint16_t>(symbol);
  switch (alphabet) {
    case HuffmanDecoder::Alphabet::kSymbols:
      return {sym, 0, HuffmanDecoder::kLiteral};
    case HuffmanDecoder::Alphabet::kLitLen:
      if (symbol < 256) return {sym, 0, HuffmanDecoder::kLiteral};
      if (symbol == dt::kEndOfBlock) return {0, 0, HuffmanDecoder::kEndOfBlock};
      if (symbol - 257 < dt::kLengthCodes.size()) {
        const auto& c = dt::kLengthCodes[symbol - 257];
        return {c.base, 0, c.extra};
      }
      break;
    case HuffmanDecoder::Alphabet::kDistance:
      if (symbol < dt::kDistCodes.size()) {
        const auto& c = dt::kDistCodes[symbol];
        return {c.base, 0, c.extra};
      }
      break;
  }
  return {0, 0, HuffmanDecoder::kSlow};
}

}  // namespace

void HuffmanDecoder::build(std::span<const std::uint8_t> lengths, bool allow_incomplete) {
  std::fill(std::begin(count_), std::end(count_), 0);
  max_len_ = 0;
  std::size_t n_used = 0;
  for (const std::uint8_t l : lengths) {
    if (l > 15) throw FormatError("Huffman code length exceeds 15 bits");
    if (l > 0) {
      ++count_[l];
      max_len_ = std::max<int>(max_len_, l);
      ++n_used;
    }
  }

  // Kraft sum check. An empty code (n_used == 0) passes as incomplete:
  // DEFLATE tolerates it for distance codes in blocks that emit no
  // matches, and any decode with it throws.
  std::uint32_t kraft = 0;  // in units of 2^-15
  for (int l = 1; l <= 15; ++l) kraft += count_[l] << (15 - l);
  if (kraft > (1u << 15)) throw FormatError("over-subscribed Huffman code");
  if (n_used > 0 && kraft < (1u << 15) && !(allow_incomplete && n_used == 1)) {
    throw FormatError("incomplete Huffman code");
  }

  // Canonical first_code / first_index per length (RFC 1951 recurrence);
  // codes of length l span [first_code_[l], first_code_[l] + count_[l]).
  std::uint32_t code = 0;
  std::uint32_t index = 0;
  for (int l = 1; l <= max_len_; ++l) {
    code = (code + count_[l - 1]) << 1;
    first_code_[l] = code;
    first_index_[l] = index;
    index += count_[l];
  }

  sym_by_code_.resize(n_used);
  std::uint32_t next_index[16];
  std::copy(std::begin(first_index_), std::end(first_index_), std::begin(next_index));
  for (std::size_t s = 0; s < lengths.size(); ++s) {
    const std::uint8_t l = lengths[s];
    if (l > 0) sym_by_code_[next_index[l]++] = static_cast<std::uint16_t>(s);
  }

  // Direct table: index = next table_bits bits of the stream (LSB-first).
  // Codes are MSB-first, so a code c of length l fills every index whose
  // low l bits equal reverse(c, l). Slots no short code fills stay slow.
  const int table_bits = std::min(max_len_, alphabet_ == Alphabet::kDistance ? 9 : 11);
  mask_ = (std::uint64_t{1} << table_bits) - 1;
  table_.assign(std::size_t{1} << table_bits, Entry{0, 0, kSlow});
  for (int l = 1; l <= table_bits; ++l) {
    for (std::uint32_t k = 0; k < count_[l]; ++k) {
      const std::uint16_t sym = sym_by_code_[first_index_[l] + k];
      Entry e = symbol_entry(alphabet_, sym);
      if (e.extra == kSlow) continue;
      e.length = static_cast<std::uint8_t>(l);
      const std::uint32_t step = 1u << l;
      for (std::uint32_t idx = BitWriter::reverse(first_code_[l] + k, l); idx < table_.size();
           idx += step) {
        table_[idx] = e;
      }
    }
  }
}

Entry HuffmanDecoder::resolve(std::uint64_t bits) const {
  if (max_len_ == 0) throw FormatError("decode with empty Huffman code");
  // Canonical walk over the buffered bits, one MSB-first code bit at a
  // time; unsigned wrap makes `code - first` < count a range test.
  std::uint32_t code = 0;
  for (int l = 1; l <= max_len_; ++l) {
    code = (code << 1) | static_cast<std::uint32_t>((bits >> (l - 1)) & 1u);
    const std::uint32_t offset = code - first_code_[l];
    if (offset < count_[l]) {
      const std::uint16_t sym = sym_by_code_[first_index_[l] + offset];
      Entry e = symbol_entry(alphabet_, sym);
      if (e.extra == kSlow) {
        throw FormatError(alphabet_ == Alphabet::kDistance ? "invalid distance symbol"
                                                           : "invalid length symbol");
      }
      e.length = static_cast<std::uint8_t>(l);
      return e;
    }
  }
  throw FormatError("invalid Huffman code in stream");
}

}  // namespace wck
