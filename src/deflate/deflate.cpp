#include "deflate/deflate.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <string>

#include "deflate/deflate_tables.hpp"
#include "deflate/huffman.hpp"
#include "deflate/lz77.hpp"
#include "util/bitio.hpp"
#include "util/error.hpp"

namespace wck {
namespace {

namespace dt = deflate_tables;

/// Precomputed length -> length-code LUT (index by length - 3).
struct LengthCodeLut {
  std::array<std::uint8_t, 256> code{};
  LengthCodeLut() noexcept {
    for (int len = dt::kMinMatch; len <= dt::kMaxMatch; ++len) {
      code[static_cast<std::size_t>(len - dt::kMinMatch)] =
          static_cast<std::uint8_t>(dt::length_to_code(len));
    }
  }
};
const LengthCodeLut kLenLut;

int length_code_of(int len) noexcept {
  return kLenLut.code[static_cast<std::size_t>(len - dt::kMinMatch)];
}

/// RLE instruction for the code-length code (RFC 1951 3.2.7).
struct ClcSymbol {
  std::uint8_t symbol;  ///< 0..18
  std::uint8_t extra_value;
  std::uint8_t extra_bits;
};

/// Encodes a concatenated (litlen ++ dist) code-length array into
/// code-length-code symbols with 16/17/18 run compression.
std::vector<ClcSymbol> rle_encode_lengths(std::span<const std::uint8_t> lengths) {
  std::vector<ClcSymbol> out;
  const std::size_t n = lengths.size();
  std::size_t i = 0;
  int prev = -1;
  while (i < n) {
    const std::uint8_t v = lengths[i];
    std::size_t run = 1;
    while (i + run < n && lengths[i + run] == v) ++run;

    if (v == 0) {
      std::size_t left = run;
      while (left >= 11) {
        const std::size_t take = std::min<std::size_t>(left, 138);
        out.push_back({18, static_cast<std::uint8_t>(take - 11), 7});
        left -= take;
      }
      if (left >= 3) {
        out.push_back({17, static_cast<std::uint8_t>(left - 3), 3});
        left = 0;
      }
      while (left-- > 0) out.push_back({0, 0, 0});
      prev = 0;
    } else {
      std::size_t left = run;
      if (prev != v) {
        out.push_back({v, 0, 0});
        --left;
        prev = v;
      }
      while (left >= 3) {
        const std::size_t take = std::min<std::size_t>(left, 6);
        out.push_back({16, static_cast<std::uint8_t>(take - 3), 2});
        left -= take;
      }
      while (left-- > 0) out.push_back({static_cast<std::uint8_t>(v), 0, 0});
    }
    i += run;
  }
  return out;
}

/// Everything needed to emit one block with a given pair of codes.
struct BlockCodes {
  CanonicalCode litlen;
  CanonicalCode dist;
};

/// Frequencies of litlen/dist symbols in a token range (EOB included).
struct BlockFreqs {
  std::array<std::uint64_t, dt::kNumLitLen> litlen{};
  std::array<std::uint64_t, dt::kNumDist> dist{};
};

BlockFreqs count_frequencies(std::span<const Lz77Token> tokens) {
  BlockFreqs f;
  for (const Lz77Token& t : tokens) {
    if (t.is_match()) {
      ++f.litlen[static_cast<std::size_t>(257 + length_code_of(t.length()))];
      ++f.dist[static_cast<std::size_t>(dt::dist_to_code(t.distance()))];
    } else {
      ++f.litlen[t.literal_byte()];
    }
  }
  ++f.litlen[dt::kEndOfBlock];
  return f;
}

/// Bit cost of the token data (symbols + extra bits) under given lengths.
std::uint64_t data_cost_bits(const BlockFreqs& f, std::span<const std::uint8_t> litlen_lengths,
                             std::span<const std::uint8_t> dist_lengths) {
  std::uint64_t bits = 0;
  for (std::size_t s = 0; s < f.litlen.size(); ++s) {
    if (f.litlen[s] == 0) continue;
    bits += f.litlen[s] * litlen_lengths[s];
    if (s > 256) bits += f.litlen[s] * dt::kLengthCodes[s - 257].extra;
  }
  for (std::size_t s = 0; s < f.dist.size(); ++s) {
    if (f.dist[s] == 0) continue;
    bits += f.dist[s] * (s < dist_lengths.size() ? dist_lengths[s] : 0);
    bits += f.dist[s] * dt::kDistCodes[s].extra;
  }
  return bits;
}

/// Emits the token data with the given codes, ending with EOB.
void emit_tokens(BitWriter& bw, std::span<const Lz77Token> tokens, const BlockCodes& codes) {
  for (const Lz77Token& t : tokens) {
    if (t.is_match()) {
      const int lc = length_code_of(t.length());
      codes.litlen.emit(bw, 257 + lc);
      const auto& le = dt::kLengthCodes[static_cast<std::size_t>(lc)];
      if (le.extra > 0) {
        bw.put(static_cast<std::uint32_t>(t.length() - le.base), le.extra);
      }
      const int dc = dt::dist_to_code(t.distance());
      codes.dist.emit(bw, dc);
      const auto& de = dt::kDistCodes[static_cast<std::size_t>(dc)];
      if (de.extra > 0) {
        bw.put(static_cast<std::uint32_t>(t.distance() - de.base), de.extra);
      }
    } else {
      codes.litlen.emit(bw, t.literal_byte());
    }
  }
  codes.litlen.emit(bw, dt::kEndOfBlock);
}

/// Dynamic-block header plan: trimmed alphabets + RLE-coded lengths.
struct DynamicPlan {
  std::vector<std::uint8_t> litlen_lengths;  // size >= 257
  std::vector<std::uint8_t> dist_lengths;    // size >= 1
  std::vector<ClcSymbol> rle;
  std::array<std::uint8_t, dt::kNumClc> clc_lengths{};
  int hclen = 4;  // number of CLC lengths transmitted, 4..19
  std::uint64_t header_bits = 0;
};

DynamicPlan plan_dynamic(const BlockFreqs& f) {
  DynamicPlan p;

  auto litlen_full = build_code_lengths(std::span(f.litlen), dt::kMaxCodeLen);
  auto dist_freq = f.dist;
  bool any_dist = false;
  for (const auto v : dist_freq) any_dist = any_dist || v > 0;
  if (!any_dist) dist_freq[0] = 1;  // RFC requires at least one distance code
  auto dist_full = build_code_lengths(std::span(dist_freq), dt::kMaxCodeLen);

  // Trim trailing absent symbols (HLIT >= 257, HDIST >= 1).
  std::size_t nlit = dt::kNumLitLen;
  while (nlit > 257 && litlen_full[nlit - 1] == 0) --nlit;
  std::size_t ndist = dt::kNumDist;
  while (ndist > 1 && dist_full[ndist - 1] == 0) --ndist;

  p.litlen_lengths.assign(litlen_full.begin(), litlen_full.begin() + nlit);
  p.dist_lengths.assign(dist_full.begin(), dist_full.begin() + ndist);

  // RLE over the concatenated arrays.
  std::vector<std::uint8_t> combined = p.litlen_lengths;
  combined.insert(combined.end(), p.dist_lengths.begin(), p.dist_lengths.end());
  p.rle = rle_encode_lengths(combined);

  // Huffman code over the CLC symbols.
  std::array<std::uint64_t, dt::kNumClc> clc_freq{};
  for (const ClcSymbol& s : p.rle) ++clc_freq[s.symbol];
  const auto clc_lengths = build_code_lengths(std::span(clc_freq), dt::kMaxClcLen);
  std::copy(clc_lengths.begin(), clc_lengths.end(), p.clc_lengths.begin());

  int hclen = dt::kNumClc;
  while (hclen > 4 && p.clc_lengths[dt::kClcOrder[static_cast<std::size_t>(hclen - 1)]] == 0) {
    --hclen;
  }
  p.hclen = hclen;

  p.header_bits = 5 + 5 + 4 + static_cast<std::uint64_t>(hclen) * 3;
  for (const ClcSymbol& s : p.rle) {
    p.header_bits += p.clc_lengths[s.symbol] + s.extra_bits;
  }
  return p;
}

void emit_dynamic_block(BitWriter& bw, std::span<const Lz77Token> tokens, const DynamicPlan& p,
                        bool final_block) {
  bw.put(final_block ? 1u : 0u, 1);
  bw.put(0b10, 2);  // BTYPE = dynamic
  bw.put(static_cast<std::uint32_t>(p.litlen_lengths.size() - 257), 5);
  bw.put(static_cast<std::uint32_t>(p.dist_lengths.size() - 1), 5);
  bw.put(static_cast<std::uint32_t>(p.hclen - 4), 4);
  for (int i = 0; i < p.hclen; ++i) {
    bw.put(p.clc_lengths[dt::kClcOrder[static_cast<std::size_t>(i)]], 3);
  }
  const auto clc = CanonicalCode::from_lengths(std::span(p.clc_lengths));
  for (const ClcSymbol& s : p.rle) {
    clc.emit(bw, s.symbol);
    if (s.extra_bits > 0) bw.put(s.extra_value, s.extra_bits);
  }
  BlockCodes codes{CanonicalCode::from_lengths(std::span(p.litlen_lengths)),
                   CanonicalCode::from_lengths(std::span(p.dist_lengths))};
  emit_tokens(bw, tokens, codes);
}

void emit_fixed_block(BitWriter& bw, std::span<const Lz77Token> tokens, bool final_block) {
  bw.put(final_block ? 1u : 0u, 1);
  bw.put(0b01, 2);  // BTYPE = fixed
  static const auto kLit = dt::fixed_litlen_lengths();
  static const auto kDist = dt::fixed_dist_lengths();
  static const BlockCodes kCodes{CanonicalCode::from_lengths(std::span(kLit)),
                                 CanonicalCode::from_lengths(std::span(kDist))};
  emit_tokens(bw, tokens, kCodes);
}

void emit_stored_blocks(BitWriter& bw, std::span<const std::byte> raw, bool final_block) {
  // A stored block holds at most 65535 bytes; split as needed. An empty
  // input still needs one (empty) stored block if it must carry BFINAL.
  std::size_t off = 0;
  do {
    const std::size_t take = std::min<std::size_t>(raw.size() - off, 65535);
    const bool last_piece = off + take == raw.size();
    bw.put((final_block && last_piece) ? 1u : 0u, 1);
    bw.put(0b00, 2);  // BTYPE = stored
    bw.align_to_byte();
    const auto len = static_cast<std::uint16_t>(take);
    bw.put(len, 16);
    bw.put(static_cast<std::uint16_t>(~len), 16);
    for (std::size_t i = 0; i < take; ++i) {
      bw.put(static_cast<std::uint8_t>(raw[off + i]), 8);
    }
    off += take;
  } while (off < raw.size());
}

}  // namespace

Bytes deflate_compress(std::span<const std::byte> input, const DeflateOptions& options) {
  BitWriter bw;

  if (input.empty()) {
    emit_stored_blocks(bw, input, /*final_block=*/true);
    return bw.finish();
  }

  const Lz77Params params = lz77_params_for_level(options.level);
  const std::vector<Lz77Token> tokens = lz77_parse(input, params);

  // Split the token stream into blocks so each gets its own adapted
  // Huffman code. Block boundaries also track the raw-byte range so the
  // stored fallback can be costed exactly.
  constexpr std::size_t kTokensPerBlock = 1 << 16;
  std::size_t tok_begin = 0;
  std::size_t raw_begin = 0;
  while (tok_begin < tokens.size() || tok_begin == 0) {
    const std::size_t tok_end = std::min(tokens.size(), tok_begin + kTokensPerBlock);
    const auto block = std::span(tokens).subspan(tok_begin, tok_end - tok_begin);
    std::size_t raw_len = 0;
    for (const Lz77Token& t : block) {
      raw_len += t.is_match() ? static_cast<std::size_t>(t.length()) : 1;
    }
    const auto raw = input.subspan(raw_begin, raw_len);
    const bool final_block = tok_end == tokens.size();

    const BlockFreqs freqs = count_frequencies(block);
    const DynamicPlan plan = plan_dynamic(freqs);
    const std::uint64_t dyn_bits =
        3 + plan.header_bits +
        data_cost_bits(freqs, std::span(plan.litlen_lengths), std::span(plan.dist_lengths));
    static const auto kFixedLit = dt::fixed_litlen_lengths();
    static const auto kFixedDist = dt::fixed_dist_lengths();
    const std::uint64_t fixed_bits =
        3 + data_cost_bits(freqs, std::span(kFixedLit), std::span(kFixedDist));
    // Stored needs byte alignment (up to 7 pad bits) + 4 bytes of
    // LEN/NLEN per 65535-byte piece.
    const std::uint64_t stored_bits =
        3 + 7 + (raw_len / 65535 + 1) * 32 + static_cast<std::uint64_t>(raw_len) * 8;

    if (stored_bits < dyn_bits && stored_bits < fixed_bits) {
      emit_stored_blocks(bw, raw, final_block);
    } else if (fixed_bits <= dyn_bits) {
      emit_fixed_block(bw, block, final_block);
    } else {
      emit_dynamic_block(bw, block, plan, final_block);
    }

    raw_begin += raw_len;
    tok_begin = tok_end;
    if (final_block) break;
  }

  return bw.finish();
}

namespace {

using Entry = HuffmanDecoder::Entry;

/// Writable bytes kept past the output's limit: a symbol that starts at
/// or before the limit fits in them whole, a match copied 8 bytes at a
/// time included.
constexpr std::size_t kSlack = dt::kMaxMatch + 8;

/// Makes `out` hold at least `pos + need` bytes before its slack. With an
/// expected size the buffer was sized to it once, so needing more is an
/// error; otherwise the buffer doubles.
void make_room(Bytes& out, std::size_t pos, std::size_t need, std::size_t expected_size) {
  std::size_t capacity = out.size() - kSlack;
  if (pos + need <= capacity) return;
  if (expected_size != 0) {
    throw FormatError("deflate stream inflates past its expected " +
                      std::to_string(expected_size) + " bytes");
  }
  while (capacity < pos + need) capacity *= 2;
  out.resize(capacity + kSlack);
}

/// Reads the dynamic-block code-length tables (RFC 1951 3.2.7) and builds
/// the block's two decoders from them.
void read_dynamic_tables(BitReader& br, HuffmanDecoder& litlen, HuffmanDecoder& dist) {
  const std::uint32_t hlit = br.get(5) + 257;
  const std::uint32_t hdist = br.get(5) + 1;
  const std::uint32_t hclen = br.get(4) + 4;
  if (hlit > 286 || hdist > 30) throw FormatError("dynamic block: alphabet too large");

  std::array<std::uint8_t, dt::kNumClc> clc_lengths{};
  for (std::uint32_t i = 0; i < hclen; ++i) {
    clc_lengths[dt::kClcOrder[i]] = static_cast<std::uint8_t>(br.get(3));
  }
  const HuffmanDecoder clc{std::span(clc_lengths)};

  std::vector<std::uint8_t> combined;
  combined.reserve(hlit + hdist);
  while (combined.size() < hlit + hdist) {
    const int sym = clc.decode(br);
    if (sym < 16) {
      combined.push_back(static_cast<std::uint8_t>(sym));
    } else if (sym == 16) {
      if (combined.empty()) throw FormatError("repeat code with no previous length");
      const std::uint32_t rep = 3 + br.get(2);
      combined.insert(combined.end(), rep, combined.back());
    } else if (sym == 17) {
      const std::uint32_t rep = 3 + br.get(3);
      combined.insert(combined.end(), rep, 0);
    } else {  // 18
      const std::uint32_t rep = 11 + br.get(7);
      combined.insert(combined.end(), rep, 0);
    }
  }
  if (combined.size() != hlit + hdist) {
    throw FormatError("code length repeat overflows alphabet");
  }
  litlen.build(std::span(combined).first(hlit));
  dist.build(std::span(combined).subspan(hlit), /*allow_incomplete=*/true);
}

/// Decodes the symbols of one Huffman-coded block into `out` from `pos`
/// on, and returns the position after them.
std::size_t inflate_block(BitReader& br, const HuffmanDecoder& litlen,
                          const HuffmanDecoder& dist, Bytes& out, std::size_t pos,
                          std::size_t expected_size) {
  // Local copies: output stores through std::byte* may alias anything
  // reached through a reference, so state kept there would be reloaded
  // after every byte written.
  BitReader in = br;
  std::byte* base = out.data();
  std::byte* op = base + pos;
  std::byte* lim = base + out.size() - kSlack;
  for (;;) {
    if (op > lim) {
      pos = static_cast<std::size_t>(op - base);
      make_room(out, pos, 0, expected_size);
      base = out.data();
      op = base + pos;
      lim = base + out.size() - kSlack;
    }
    // One refill covers a length/distance pair: at most 48 bits.
    in.refill();
    const Entry sym = litlen.lookup(in.bits());
    in.consume(sym.length);
    if (sym.extra == HuffmanDecoder::kLiteral) {
      *op++ = static_cast<std::byte>(sym.value);
      continue;
    }
    if (sym.extra == HuffmanDecoder::kEndOfBlock) break;

    const std::size_t len = sym.value + (in.bits() & ((std::uint64_t{1} << sym.extra) - 1));
    in.consume(sym.extra);
    const Entry dsym = dist.lookup(in.bits());
    in.consume(dsym.length);
    const std::size_t distance =
        dsym.value + (in.bits() & ((std::uint64_t{1} << dsym.extra) - 1));
    in.consume(dsym.extra);
    if (distance > static_cast<std::size_t>(op - base)) {
      throw FormatError("distance reaches before start of output");
    }
    const std::byte* src = op - distance;
    std::byte* const stop = op + len;
    if (distance >= 8) {
      // The source of each 8-byte chunk lies wholly before its
      // destination; the last chunk may spill into the slack.
      do {
        std::memcpy(op, src, 8);
        op += 8;
        src += 8;
      } while (op < stop);
    } else {
      // Overlapping copy: the bytes repeat with period `distance`.
      do {
        *op++ = *src++;
      } while (op < stop);
    }
    op = stop;
  }
  br = in;
  return static_cast<std::size_t>(op - base);
}

}  // namespace

Bytes deflate_decompress(std::span<const std::byte> input, std::size_t expected_size) {
  Bytes out(
      (expected_size != 0 ? expected_size : std::max<std::size_t>(4 * input.size(), 4096)) +
      kSlack);
  std::size_t pos = 0;
  BitReader br(input);

  static const auto kFixedLit = dt::fixed_litlen_lengths();
  static const auto kFixedDist = dt::fixed_dist_lengths();
  static const HuffmanDecoder kFixedLitDec{std::span(kFixedLit), /*allow_incomplete=*/false,
                                           HuffmanDecoder::Alphabet::kLitLen};
  static const HuffmanDecoder kFixedDistDec{std::span(kFixedDist), /*allow_incomplete=*/false,
                                            HuffmanDecoder::Alphabet::kDistance};
  HuffmanDecoder dyn_lit(HuffmanDecoder::Alphabet::kLitLen);
  HuffmanDecoder dyn_dist(HuffmanDecoder::Alphabet::kDistance);

  bool final_block = false;
  while (!final_block) {
    final_block = br.get(1) != 0;
    const std::uint32_t btype = br.get(2);

    if (btype == 0b00) {  // stored
      br.align_to_byte();
      const std::uint32_t len = br.get(16);
      const std::uint32_t nlen = br.get(16);
      if ((len ^ nlen) != 0xFFFFu) throw FormatError("stored block LEN/NLEN mismatch");
      make_room(out, pos, len, expected_size);
      br.read_aligned(out.data() + pos, len);
      pos += len;
      continue;
    }
    if (btype == 0b11) throw FormatError("reserved block type 11");

    if (btype == 0b10) {  // dynamic
      read_dynamic_tables(br, dyn_lit, dyn_dist);
      pos = inflate_block(br, dyn_lit, dyn_dist, out, pos, expected_size);
    } else {
      pos = inflate_block(br, kFixedLitDec, kFixedDistDec, out, pos, expected_size);
    }
  }
  if (br.overrun()) throw FormatError("bit stream truncated");
  if (expected_size != 0 && pos != expected_size) {
    throw FormatError("deflate stream inflates to " + std::to_string(pos) +
                      " bytes, expected " + std::to_string(expected_size));
  }
  out.resize(pos);
  return out;
}

}  // namespace wck
