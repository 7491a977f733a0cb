// Unit and property tests for the from-scratch DEFLATE implementation,
// including cross-validation against the system zlib when available.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>
#include <optional>
#include <string>
#include <utility>

#include "core/compressor.hpp"
#include "core/synthetic.hpp"
#include "deflate/deflate.hpp"
#include "deflate/deflate_tables.hpp"
#include "deflate/huffman.hpp"
#include "deflate/lz77.hpp"
#include "util/bitio.hpp"
#include "util/checksum.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

#ifdef WCK_HAVE_ZLIB
#include <zlib.h>
#endif

namespace wck {
namespace {

Bytes make_bytes(const std::string& s) {
  Bytes b(s.size());
  std::memcpy(b.data(), s.data(), s.size());
  return b;
}

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Bytes b(n);
  for (auto& v : b) v = static_cast<std::byte>(rng.bounded(256));
  return b;
}

/// Highly compressible data resembling formatted checkpoint payloads:
/// long runs, repeated structures, slowly varying values.
Bytes structured_bytes(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Bytes b;
  b.reserve(n);
  while (b.size() < n) {
    const auto mode = rng.bounded(3);
    if (mode == 0) {
      const auto run = 4 + rng.bounded(64);
      const auto v = static_cast<std::byte>(rng.bounded(8));
      for (std::uint64_t i = 0; i < run && b.size() < n; ++i) b.push_back(v);
    } else if (mode == 1) {
      for (int i = 0; i < 16 && b.size() < n; ++i) {
        b.push_back(static_cast<std::byte>(i));
      }
    } else {
      b.push_back(static_cast<std::byte>(rng.bounded(256)));
    }
  }
  return b;
}

// ---------------------------------------------------------------------
// Huffman primitives
// ---------------------------------------------------------------------

/// The literal package-merge build_code_lengths replaced: every node
/// carries its own copy of the symbols it contains. Kept as the oracle
/// the index-linked package-merge must match length for length.
std::vector<std::uint8_t> reference_code_lengths(std::span<const std::uint64_t> freqs,
                                                 int max_length) {
  struct Node {
    std::uint64_t weight = 0;
    std::vector<std::uint16_t> symbols;
  };
  std::vector<std::uint8_t> lengths(freqs.size(), 0);
  std::vector<Node> leaves;
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    if (freqs[i] > 0) leaves.push_back(Node{freqs[i], {static_cast<std::uint16_t>(i)}});
  }
  if (leaves.empty()) return lengths;
  if (leaves.size() == 1) {
    lengths[leaves[0].symbols[0]] = 1;
    return lengths;
  }
  if (static_cast<std::size_t>(1) << max_length < leaves.size()) {
    throw InvalidArgumentError("alphabet does not fit");
  }
  std::sort(leaves.begin(), leaves.end(),
            [](const Node& a, const Node& b) { return a.weight < b.weight; });
  std::vector<Node> prev = leaves;
  for (int level = 1; level < max_length; ++level) {
    std::vector<Node> packages;
    for (std::size_t i = 0; i + 1 < prev.size(); i += 2) {
      Node pkg{prev[i].weight + prev[i + 1].weight, prev[i].symbols};
      pkg.symbols.insert(pkg.symbols.end(), prev[i + 1].symbols.begin(),
                         prev[i + 1].symbols.end());
      packages.push_back(std::move(pkg));
    }
    std::vector<Node> cur;
    std::size_t li = 0;
    std::size_t pi = 0;
    while (li < leaves.size() || pi < packages.size()) {
      const bool take_leaf = pi >= packages.size() || (li < leaves.size() &&
                                                       leaves[li].weight <= packages[pi].weight);
      cur.push_back(take_leaf ? leaves[li++] : std::move(packages[pi++]));
    }
    prev = std::move(cur);
  }
  for (std::size_t i = 0; i < 2 * (leaves.size() - 1); ++i) {
    for (const std::uint16_t sym : prev[i].symbols) ++lengths[sym];
  }
  return lengths;
}

/// A seeded frequency vector: ties, wide dynamic range, sparse alphabets
/// and skewed (long-code) shapes, by `mode`.
std::vector<std::uint64_t> oracle_freqs(Xoshiro256& rng, std::size_t n, int mode) {
  std::vector<std::uint64_t> f(n, 0);
  std::uint64_t fib_a = 1;
  std::uint64_t fib_b = 1;
  for (auto& v : f) {
    switch (mode) {
      case 0:  // many ties: a handful of distinct small weights
        v = rng.bounded(4);
        break;
      case 1:  // wide dynamic range
        v = std::uint64_t{1} << rng.bounded(24);
        break;
      case 2:  // sparse: mostly absent symbols
        v = rng.bounded(8) == 0 ? 1 + rng.bounded(1000) : 0;
        break;
      case 3:  // Fibonacci runs: the shape that needs the length limit
        v = fib_a;
        fib_a = std::exchange(fib_b, fib_a + fib_b);
        if (fib_a > (std::uint64_t{1} << 40)) fib_a = fib_b = 1;
        break;
      default:  // uniform counts, occasional ties
        v = 1 + rng.bounded(64);
        break;
    }
  }
  return f;
}

TEST(Huffman, CodeLengthsMatchReferencePackageMerge) {
  Xoshiro256 rng(0x5eed);
  int compared = 0;
  int rejected = 0;
  for (int i = 0; i < 1400; ++i) {
    const std::size_t n = 2 + rng.bounded(287);  // alphabets of 2..288 symbols
    const int max_length = i % 2 == 0 ? 15 : 7;
    const int mode = static_cast<int>(rng.bounded(5));
    const std::vector<std::uint64_t> freqs = oracle_freqs(rng, n, mode);
    SCOPED_TRACE("case " + std::to_string(i) + " n=" + std::to_string(n) +
                 " mode=" + std::to_string(mode) + " max_length=" + std::to_string(max_length));
    std::vector<std::uint8_t> want;
    try {
      want = reference_code_lengths(freqs, max_length);
    } catch (const InvalidArgumentError&) {
      EXPECT_THROW((void)build_code_lengths(freqs, max_length), InvalidArgumentError);
      ++rejected;
      continue;
    }
    ASSERT_EQ(build_code_lengths(freqs, max_length), want);
    ++compared;
  }
  EXPECT_GE(compared, 1000);
  EXPECT_GT(rejected, 0);  // max_length 7 with > 128 live symbols

  // Degenerate alphabets: all-zero and single-symbol inputs.
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{19}, std::size_t{288}}) {
    for (const int max_length : {1, 7, 15}) {
      const std::vector<std::uint64_t> zero(n, 0);
      EXPECT_EQ(build_code_lengths(zero, max_length), reference_code_lengths(zero, max_length));
      std::vector<std::uint64_t> one(n, 0);
      one[n / 2] = 7;
      EXPECT_EQ(build_code_lengths(one, max_length), reference_code_lengths(one, max_length));
    }
  }
}

TEST(Huffman, LengthLimitOutsideOneToFifteenRejected) {
  const std::vector<std::uint64_t> freqs = {3, 1, 4, 1, 5};
  for (const int max_length : {std::numeric_limits<int>::min(), -1, 0, 16, 31, 64}) {
    EXPECT_THROW((void)build_code_lengths(freqs, max_length), InvalidArgumentError)
        << "max_length=" << max_length;
  }
  EXPECT_NO_THROW((void)build_code_lengths(std::vector<std::uint64_t>{1, 1}, 1));
  EXPECT_NO_THROW((void)build_code_lengths(freqs, 15));
}

TEST(Huffman, CodeLengthsSatisfyKraft) {
  std::vector<std::uint64_t> freqs = {45, 13, 12, 16, 9, 5};
  const auto lengths = build_code_lengths(freqs, 15);
  double kraft = 0.0;
  for (const auto l : lengths) {
    ASSERT_GT(l, 0u);
    kraft += std::pow(2.0, -static_cast<double>(l));
  }
  EXPECT_DOUBLE_EQ(kraft, 1.0);
}

TEST(Huffman, OptimalForClassicExample) {
  // Frequencies from the textbook example; total cost must equal the
  // unrestricted Huffman optimum (224 bits here).
  std::vector<std::uint64_t> freqs = {45, 13, 12, 16, 9, 5};
  const auto lengths = build_code_lengths(freqs, 15);
  std::uint64_t cost = 0;
  for (std::size_t i = 0; i < freqs.size(); ++i) cost += freqs[i] * lengths[i];
  EXPECT_EQ(cost, 45u * 1 + 13 * 3 + 12 * 3 + 16 * 3 + 9 * 4 + 5 * 4);
}

TEST(Huffman, LengthLimitRespected) {
  // Exponential frequencies force long codes without a limit.
  std::vector<std::uint64_t> freqs(12);
  std::uint64_t f = 1;
  for (auto& v : freqs) {
    v = f;
    f *= 3;
  }
  const auto lengths = build_code_lengths(freqs, 5);
  for (const auto l : lengths) {
    EXPECT_LE(l, 5u);
    EXPECT_GT(l, 0u);
  }
  double kraft = 0.0;
  for (const auto l : lengths) kraft += std::pow(2.0, -static_cast<double>(l));
  EXPECT_LE(kraft, 1.0 + 1e-12);
}

TEST(Huffman, SingleSymbolGetsLengthOne) {
  std::vector<std::uint64_t> freqs = {0, 0, 42, 0};
  const auto lengths = build_code_lengths(freqs, 15);
  EXPECT_EQ(lengths, (std::vector<std::uint8_t>{0, 0, 1, 0}));
}

TEST(Huffman, EmptyAlphabetAllZero) {
  std::vector<std::uint64_t> freqs = {0, 0, 0};
  const auto lengths = build_code_lengths(freqs, 15);
  EXPECT_EQ(lengths, (std::vector<std::uint8_t>{0, 0, 0}));
}

TEST(Huffman, TooSmallLimitRejected) {
  std::vector<std::uint64_t> freqs(9, 1);  // 9 symbols cannot fit 3 bits
  EXPECT_THROW((void)build_code_lengths(freqs, 3), InvalidArgumentError);
}

TEST(Huffman, CanonicalCodesAreRfc1951Example) {
  // RFC 1951 3.2.2 example: lengths (3,3,3,3,3,2,4,4) yield the listed
  // canonical codes.
  const std::vector<std::uint8_t> lengths = {3, 3, 3, 3, 3, 2, 4, 4};
  const auto cc = CanonicalCode::from_lengths(lengths);
  const std::vector<std::uint16_t> want = {0b010, 0b011, 0b100,  0b101,
                                           0b110, 0b00,  0b1110, 0b1111};
  // Stored in stream order: each code bit-reversed over its length.
  for (std::size_t s = 0; s < want.size(); ++s) {
    EXPECT_EQ(cc.stream_codes[s], BitWriter::reverse(want[s], lengths[s])) << "symbol " << s;
  }
}

TEST(Huffman, EncodeDecodeRoundTripAllSymbols) {
  const std::vector<std::uint8_t> lengths = {3, 3, 3, 3, 3, 2, 4, 4};
  const auto cc = CanonicalCode::from_lengths(lengths);
  const HuffmanDecoder dec(lengths);

  BitWriter bw;
  for (int s = 0; s < 8; ++s) cc.emit(bw, s);
  const Bytes buf = bw.finish();

  BitReader br(buf);
  for (int s = 0; s < 8; ++s) EXPECT_EQ(dec.decode(br), s);
}

TEST(Huffman, DecoderSlowPathForLongCodes) {
  // A skewed alphabet that produces codes longer than the fast-table
  // width (10 bits) when limited to 15.
  std::vector<std::uint64_t> freqs(20);
  std::uint64_t f = 1;
  for (auto& v : freqs) {
    v = f;
    f = f * 2 + 1;
  }
  const auto lengths = build_code_lengths(freqs, 15);
  EXPECT_GT(*std::max_element(lengths.begin(), lengths.end()), 10);

  const auto cc = CanonicalCode::from_lengths(lengths);
  const HuffmanDecoder dec(lengths);
  BitWriter bw;
  for (int s = 0; s < 20; ++s) cc.emit(bw, s);
  const Bytes buf = bw.finish();
  BitReader br(buf);
  for (int s = 0; s < 20; ++s) EXPECT_EQ(dec.decode(br), s);
}

TEST(Huffman, OversubscribedLengthsRejected) {
  const std::vector<std::uint8_t> lengths = {1, 1, 1};  // 3 codes of length 1
  EXPECT_THROW(HuffmanDecoder dec(lengths), FormatError);
}

TEST(Huffman, IncompleteCodeRejectedUnlessAllowed) {
  const std::vector<std::uint8_t> lengths = {2, 0, 0};  // only half the space
  EXPECT_THROW(HuffmanDecoder dec(lengths), FormatError);
  const std::vector<std::uint8_t> single = {1, 0, 0};
  EXPECT_NO_THROW(HuffmanDecoder dec(single, /*allow_incomplete=*/true));
}

// ---------------------------------------------------------------------
// Symbol tables
// ---------------------------------------------------------------------

TEST(DeflateTables, LengthCodeCoversFullRange) {
  namespace dt = deflate_tables;
  for (int len = dt::kMinMatch; len <= dt::kMaxMatch; ++len) {
    const int c = dt::length_to_code(len);
    ASSERT_GE(c, 0);
    ASSERT_LE(c, 28);
    const auto& e = dt::kLengthCodes[static_cast<std::size_t>(c)];
    EXPECT_GE(len, static_cast<int>(e.base));
    EXPECT_LT(len - e.base, 1 << e.extra) << "len=" << len;
  }
  EXPECT_EQ(dt::length_to_code(258), 28);
}

TEST(DeflateTables, DistCodeCoversFullRange) {
  namespace dt = deflate_tables;
  for (int dist = 1; dist <= dt::kWindowSize; ++dist) {
    const int c = dt::dist_to_code(dist);
    ASSERT_GE(c, 0);
    ASSERT_LE(c, 29);
    const auto& e = dt::kDistCodes[static_cast<std::size_t>(c)];
    EXPECT_GE(dist, static_cast<int>(e.base));
    EXPECT_LT(dist - e.base, 1 << e.extra) << "dist=" << dist;
  }
}

// ---------------------------------------------------------------------
// LZ77
// ---------------------------------------------------------------------

std::size_t reconstructed_size(const std::vector<Lz77Token>& tokens) {
  std::size_t n = 0;
  for (const auto& t : tokens) n += t.is_match() ? static_cast<std::size_t>(t.length()) : 1;
  return n;
}

Bytes reconstruct(const std::vector<Lz77Token>& tokens) {
  Bytes out;
  for (const auto& t : tokens) {
    if (t.is_match()) {
      const std::size_t start = out.size() - static_cast<std::size_t>(t.distance());
      for (int i = 0; i < t.length(); ++i) out.push_back(out[start + static_cast<std::size_t>(i)]);
    } else {
      out.push_back(static_cast<std::byte>(t.literal_byte()));
    }
  }
  return out;
}

class Lz77Levels : public ::testing::TestWithParam<int> {};

TEST_P(Lz77Levels, ParseReconstructsInput) {
  const auto params = lz77_params_for_level(GetParam());
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Bytes input = structured_bytes(20000, seed);
    const auto tokens = lz77_parse(input, params);
    EXPECT_EQ(reconstruct(tokens), input) << "seed=" << seed;
  }
}

TEST_P(Lz77Levels, MatchesShrinkTokenCountOnRepetitiveData) {
  const Bytes input = make_bytes(std::string(5000, 'x'));
  const auto tokens = lz77_parse(input, lz77_params_for_level(GetParam()));
  EXPECT_EQ(reconstructed_size(tokens), input.size());
  EXPECT_LT(tokens.size(), 100u);
}

INSTANTIATE_TEST_SUITE_P(AllLevels, Lz77Levels, ::testing::Values(1, 3, 6, 9));

TEST(Lz77, TokenPackingLimits) {
  const auto lit = Lz77Token::literal(0xFF);
  EXPECT_FALSE(lit.is_match());
  EXPECT_EQ(lit.literal_byte(), 0xFF);

  const auto m = Lz77Token::match(258, 32768);
  EXPECT_TRUE(m.is_match());
  EXPECT_EQ(m.length(), 258);
  EXPECT_EQ(m.distance(), 32768);

  const auto m2 = Lz77Token::match(3, 1);
  EXPECT_EQ(m2.length(), 3);
  EXPECT_EQ(m2.distance(), 1);
}

TEST(Lz77, InvalidLevelRejected) {
  EXPECT_THROW((void)lz77_params_for_level(0), InvalidArgumentError);
  EXPECT_THROW((void)lz77_params_for_level(10), InvalidArgumentError);
}

TEST(Lz77, MatchesRespectWindow) {
  // Two identical 1 KiB blocks separated by > 32 KiB must not match
  // across the window.
  Bytes input = structured_bytes(1024, 5);
  const Bytes filler = random_bytes(40000, 6);
  input.insert(input.end(), filler.begin(), filler.end());
  const Bytes head = structured_bytes(1024, 5);
  input.insert(input.end(), head.begin(), head.end());
  const auto tokens = lz77_parse(input, lz77_params_for_level(6));
  for (const auto& t : tokens) {
    if (t.is_match()) {
      EXPECT_LE(t.distance(), 32768);
    }
  }
  EXPECT_EQ(reconstruct(tokens), input);
}

// ---------------------------------------------------------------------
// DEFLATE round trips
// ---------------------------------------------------------------------

struct RoundTripCase {
  const char* name;
  Bytes data;
};

std::vector<RoundTripCase> round_trip_cases() {
  std::vector<RoundTripCase> cases;
  cases.push_back({"empty", {}});
  cases.push_back({"one_byte", make_bytes("A")});
  cases.push_back({"short_text", make_bytes("hello, hello, hello world")});
  cases.push_back({"all_same", make_bytes(std::string(100000, 'z'))});
  cases.push_back({"random_small", random_bytes(500, 42)});
  cases.push_back({"random_large", random_bytes(300000, 43)});
  cases.push_back({"structured_large", structured_bytes(300000, 44)});
  // All 256 byte values, repeated (exercises 9-bit fixed codes).
  Bytes all;
  for (int r = 0; r < 40; ++r) {
    for (int v = 0; v < 256; ++v) all.push_back(static_cast<std::byte>(v));
  }
  cases.push_back({"all_byte_values", std::move(all)});
  return cases;
}

TEST(Deflate, RoundTripAllCases) {
  for (const auto& c : round_trip_cases()) {
    SCOPED_TRACE(c.name);
    const Bytes comp = deflate_compress(c.data);
    const Bytes back = deflate_decompress(comp, c.data.size());
    EXPECT_EQ(back, c.data);
  }
}

TEST(Deflate, RoundTripAllLevels) {
  const Bytes data = structured_bytes(100000, 7);
  for (int level = 1; level <= 9; ++level) {
    SCOPED_TRACE(level);
    const Bytes comp = deflate_compress(data, DeflateOptions{level});
    EXPECT_EQ(deflate_decompress(comp), data);
  }
}

TEST(Deflate, HigherLevelNeverMuchWorse) {
  const Bytes data = structured_bytes(200000, 8);
  const auto size1 = deflate_compress(data, DeflateOptions{1}).size();
  const auto size9 = deflate_compress(data, DeflateOptions{9}).size();
  EXPECT_LE(size9, size1 + size1 / 10);
}

TEST(Deflate, IncompressibleDataFallsBackNearStored) {
  const Bytes data = random_bytes(100000, 9);
  const Bytes comp = deflate_compress(data);
  // Stored-block overhead is 5 bytes / 65535: expansion must be tiny.
  EXPECT_LE(comp.size(), data.size() + data.size() / 100 + 64);
  EXPECT_EQ(deflate_decompress(comp), data);
}

TEST(Deflate, CompressibleDataActuallyShrinks) {
  const Bytes data = make_bytes(std::string(65536, 'q'));
  const Bytes comp = deflate_compress(data);
  EXPECT_LT(comp.size(), data.size() / 100);
}

TEST(Deflate, MultiBlockInputs) {
  // > 64K tokens of literals forces multiple blocks.
  const Bytes data = random_bytes(200000, 10);
  const Bytes comp = deflate_compress(data, DeflateOptions{1});
  EXPECT_EQ(deflate_decompress(comp), data);
}

TEST(Deflate, MalformedStreamsRejected) {
  EXPECT_THROW((void)deflate_decompress({}), FormatError);

  Bytes junk = random_bytes(64, 11);
  // Force reserved block type 11 in the first block header.
  junk[0] = static_cast<std::byte>(0x06);  // BFINAL=0, BTYPE=11
  EXPECT_THROW((void)deflate_decompress(junk), FormatError);
}

TEST(Deflate, TruncatedStreamRejected) {
  const Bytes data = structured_bytes(50000, 12);
  Bytes comp = deflate_compress(data);
  comp.resize(comp.size() / 2);
  EXPECT_THROW((void)deflate_decompress(comp), FormatError);
}


// ---------------------------------------------------------------------
// Golden output: the encoder's bytes are part of its contract. Speed
// work on LZ77, code construction or emission must not move one bit, so
// the size and CRC-32 of deflate_compress are pinned on the checkpoint
// payload and on the synthetic round-trip inputs.
// ---------------------------------------------------------------------

/// The fig9 formatted payload: the pre-entropy bytes the compressor
/// hands to deflate for the paper's 1156x82x2 temperature field (seed
/// 2015, default parameters), i.e. the tail of an EntropyMode::kNone
/// stream.
const Bytes& fig9_payload() {
  static const Bytes payload = [] {
    CompressionParams params;
    params.entropy = EntropyMode::kNone;
    const CompressedArray c =
        WaveletCompressor(params).compress(make_temperature_field(Shape{1156, 82, 2}, 2015));
    return Bytes(c.data.end() - static_cast<std::ptrdiff_t>(c.payload_bytes), c.data.end());
  }();
  return payload;
}

struct GoldenDigest {
  std::string name;
  std::size_t size;
  std::uint32_t crc;
  bool operator==(const GoldenDigest&) const = default;
};

std::vector<GoldenDigest> golden_digests() {
  std::vector<GoldenDigest> out;
  const auto add = [&out](std::string name, std::span<const std::byte> input, int level) {
    const Bytes comp = deflate_compress(input, DeflateOptions{level});
    out.push_back({std::move(name), comp.size(), crc32(comp)});
  };
  const Bytes& payload = fig9_payload();
  for (const int level : {1, 6, 9}) add("fig9/L" + std::to_string(level), payload, level);
  constexpr std::size_t kSlice = 2048;
  for (std::size_t k = 0; k < 5; ++k) {
    const std::size_t off = k * (payload.size() - kSlice) / 4;
    add("fig9_2k@" + std::to_string(off), std::span(payload).subspan(off, kSlice), 6);
  }
  for (const auto& c : round_trip_cases()) add(c.name, c.data, 6);
  const Bytes structured = structured_bytes(100000, 7);
  for (const int level : {1, 6, 9}) add("structured/L" + std::to_string(level), structured, level);
  return out;
}

// Recorded before the encoder's Huffman code construction, LZ77 chains and bit
// emission were rewritten for speed; a mismatch means the bytes moved.
const std::vector<GoldenDigest> kGolden = {
    {"fig9/L1", 413170, 0x120d9051},
    {"fig9/L6", 407185, 0xa2dae356},
    {"fig9/L9", 406491, 0x2f96c098},
    {"fig9_2k@0", 1967, 0x79b6ac0d},
    {"fig9_2k@135657", 1865, 0xb5b8b6e5},
    {"fig9_2k@271314", 560, 0xdf462f77},
    {"fig9_2k@406971", 1913, 0x33a78751},
    {"fig9_2k@542629", 1931, 0xc05604e9},
    {"empty", 5, 0x4564cc52},
    {"one_byte", 3, 0xcd9aca1f},
    {"short_text", 16, 0xe80a1893},
    {"all_same", 113, 0xaa601fa2},
    {"random_small", 505, 0x005aadc8},
    {"random_large", 300045, 0xc50687eb},
    {"structured_large", 24895, 0xa3deeaa8},
    {"all_byte_values", 349, 0x108329c4},
    {"structured/L1", 9837, 0xf38954c9},
    {"structured/L6", 8332, 0xe160d356},
    {"structured/L9", 7382, 0x9e6d23a0},
};

// The fig9 rows depend on deflate's input too, which WaveletCompressor
// builds; it is pinned on its own so a failure says which side moved.
const GoldenDigest kFig9Payload = {"fig9 payload (deflate input)", 544677, 0x2144df1c};

TEST(DeflateGolden, OutputBytesUnchanged) {
  const Bytes& payload = fig9_payload();
  const GoldenDigest input{kFig9Payload.name, payload.size(), crc32(payload)};
  const bool input_same = input == kFig9Payload;
  EXPECT_TRUE(input_same) << "the fig9 payload changed, not the deflate encoder: got {"
                          << input.size << ", 0x" << std::hex << input.crc << "}";
  const std::vector<GoldenDigest> got = golden_digests();
  EXPECT_EQ(got.size(), kGolden.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const bool from_payload = got[i].name.starts_with("fig9");
    EXPECT_TRUE(i < kGolden.size() && got[i] == kGolden[i])
        << "got {\"" << got[i].name << "\", " << got[i].size << ", 0x" << std::hex << got[i].crc
        << std::dec << "},"
        << (from_payload && !input_same ? " (its input, the fig9 payload, changed)" : "");
  }
}

TEST(Deflate, TruncatedAtEveryByteRejected) {
  // Every proper prefix of a 2 KB fig9 slice's stream ends mid-stream,
  // so each decode reaches its own last 8 bytes through the byte-wise
  // tail refill: reading past the end must throw, with or without a
  // known size.
  const auto slice = std::span(fig9_payload()).subspan(100000, 2048);
  const Bytes comp = deflate_compress(slice);
  ASSERT_TRUE(std::ranges::equal(deflate_decompress(comp, slice.size()), slice));
  for (std::size_t len = 0; len < comp.size(); ++len) {
    const std::span<const std::byte> prefix(comp.data(), len);
    EXPECT_THROW((void)deflate_decompress(prefix), FormatError) << "prefix " << len;
    EXPECT_THROW((void)deflate_decompress(prefix, slice.size()), FormatError) << "prefix " << len;
  }
}

TEST(Deflate, ExpectedSizeBoundsTheOutput) {
  const Bytes data = structured_bytes(50000, 13);
  const Bytes comp = deflate_compress(data);
  EXPECT_EQ(deflate_decompress(comp, data.size()), data);
  // One byte short of the real size: throws once the output passes it.
  EXPECT_THROW((void)deflate_decompress(comp, data.size() - 1), FormatError);
  // One byte more: the stream ends short.
  EXPECT_THROW((void)deflate_decompress(comp, data.size() + 1), FormatError);
}

// ---------------------------------------------------------------------
// Containers
// ---------------------------------------------------------------------

TEST(Gzip, RoundTrip) {
  const Bytes data = structured_bytes(80000, 13);
  const Bytes gz = gzip_compress(data);
  EXPECT_EQ(gzip_decompress(gz), data);
  // gzip magic.
  EXPECT_EQ(static_cast<unsigned>(gz[0]), 0x1Fu);
  EXPECT_EQ(static_cast<unsigned>(gz[1]), 0x8Bu);
}

TEST(Gzip, CorruptedBodyDetected) {
  const Bytes data = structured_bytes(50000, 14);
  Bytes gz = gzip_compress(data);
  gz[gz.size() / 2] ^= std::byte{0x01};
  EXPECT_THROW((void)gzip_decompress(gz), Error);  // Format or Corrupt
}

TEST(Gzip, CorruptedCrcDetected) {
  const Bytes data = structured_bytes(50000, 15);
  Bytes gz = gzip_compress(data);
  gz[gz.size() - 5] ^= std::byte{0x01};  // inside the CRC field
  EXPECT_THROW((void)gzip_decompress(gz), CorruptDataError);
}

TEST(Gzip, BadMagicRejected) {
  Bytes junk = make_bytes("not a gzip stream at all");
  EXPECT_THROW((void)gzip_decompress(junk), FormatError);
}

TEST(Zlib, RoundTrip) {
  const Bytes data = structured_bytes(80000, 16);
  const Bytes z = zlib_compress(data);
  EXPECT_EQ(zlib_decompress(z), data);
  // CMF/FLG checksum property.
  EXPECT_EQ((static_cast<unsigned>(z[0]) * 256 + static_cast<unsigned>(z[1])) % 31, 0u);
}

TEST(Zlib, AdlerMismatchDetected) {
  const Bytes data = structured_bytes(50000, 17);
  Bytes z = zlib_compress(data);
  z[z.size() - 1] ^= std::byte{0x01};
  EXPECT_THROW((void)zlib_decompress(z), CorruptDataError);
}

// ---------------------------------------------------------------------
// Truncated / corrupt-header decode paths: each must reject with a typed
// error and produce no output — never over-read or return partial data.
// ---------------------------------------------------------------------

TEST(Gzip, EveryHeaderPrefixTruncationRejected) {
  const Bytes gz = gzip_compress(structured_bytes(5000, 18));
  // The fixed header is 10 bytes; also cut inside body and trailer.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{1}, std::size_t{5}, std::size_t{9}, std::size_t{10},
        gz.size() / 2, gz.size() - 8, gz.size() - 4, gz.size() - 1}) {
    Bytes cut(gz.begin(), gz.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW((void)gzip_decompress(cut), Error) << "keep=" << keep;
  }
}

TEST(Gzip, UnsupportedMethodAndFlagExtensionsHandled) {
  const Bytes gz = gzip_compress(structured_bytes(2000, 19));
  {
    Bytes bad = gz;
    bad[2] = std::byte{9};  // CM != 8 (deflate)
    EXPECT_THROW((void)gzip_decompress(bad), FormatError);
  }
  {
    // FNAME flag set but no NUL-terminated name present: the z-string
    // skipper must hit the bounds check, not walk off the buffer.
    Bytes bad(gz.begin(), gz.begin() + 10);
    bad[3] = std::byte{0x08};  // FLG = FNAME
    EXPECT_THROW((void)gzip_decompress(bad), Error);
  }
  {
    // FEXTRA with an XLEN that overruns the stream.
    Bytes bad = gz;
    bad[3] = std::byte{0x04};  // FLG = FEXTRA
    bad.resize(12);
    bad[10] = std::byte{0xFF};  // XLEN = 0xFFFF
    bad[11] = std::byte{0xFF};
    EXPECT_THROW((void)gzip_decompress(bad), Error);
  }
}

TEST(Zlib, CorruptHeaderRejected) {
  const Bytes z = zlib_compress(structured_bytes(2000, 20));
  {
    Bytes bad = z;
    bad[0] = std::byte{0x79};  // breaks the FCHECK divisibility
    EXPECT_THROW((void)zlib_decompress(bad), FormatError);
  }
  {
    Bytes bad = z;
    bad[0] = static_cast<std::byte>((static_cast<unsigned>(bad[0]) & 0xF0u) | 0x09u);  // CM=9
    EXPECT_THROW((void)zlib_decompress(bad), FormatError);
  }
  {
    // FDICT set (with FCHECK re-balanced): preset dictionaries are
    // unsupported and must be rejected, not misparsed.
    Bytes bad = z;
    std::uint8_t flg = static_cast<std::uint8_t>(bad[1]);
    flg = static_cast<std::uint8_t>(flg | 0x20u);
    flg = static_cast<std::uint8_t>(flg & ~0x1Fu);
    const int rem = (0x78 * 256 + flg) % 31;
    if (rem != 0) flg = static_cast<std::uint8_t>(flg + (31 - rem));
    bad[1] = static_cast<std::byte>(flg);
    EXPECT_THROW((void)zlib_decompress(bad), FormatError);
  }
  for (const std::size_t keep : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
    Bytes cut(z.begin(), z.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW((void)zlib_decompress(cut), Error) << "keep=" << keep;
  }
}

TEST(Deflate, CorruptBlockStructureRejected) {
  {
    // Reserved block type 11.
    BitWriter bw;
    bw.put(1, 1);     // BFINAL
    bw.put(0b11, 2);  // BTYPE = reserved
    EXPECT_THROW((void)deflate_decompress(bw.finish()), FormatError);
  }
  {
    // Stored block with LEN/NLEN mismatch.
    BitWriter bw;
    bw.put(1, 1);
    bw.put(0b00, 2);
    bw.align_to_byte();
    bw.put(0x0004, 16);  // LEN = 4
    bw.put(0x1234, 16);  // NLEN != ~LEN
    EXPECT_THROW((void)deflate_decompress(bw.finish()), FormatError);
  }
  {
    // Stored block whose LEN runs past the end of the stream.
    BitWriter bw;
    bw.put(1, 1);
    bw.put(0b00, 2);
    bw.align_to_byte();
    const std::uint16_t len = 1000;
    bw.put(len, 16);
    bw.put(static_cast<std::uint16_t>(~len), 16);
    bw.put(0xAB, 8);  // only 1 of the promised 1000 bytes
    EXPECT_THROW((void)deflate_decompress(bw.finish()), FormatError);
  }
  {
    // Dynamic block with HLIT beyond the 286-symbol alphabet.
    BitWriter bw;
    bw.put(1, 1);
    bw.put(0b10, 2);
    bw.put(31, 5);  // HLIT = 288 > 286
    bw.put(0, 5);
    bw.put(0, 4);
    EXPECT_THROW((void)deflate_decompress(bw.finish()), FormatError);
  }
  {
    // Truncated mid code-length tables.
    const Bytes comp = deflate_compress(structured_bytes(60000, 21));
    Bytes cut(comp.begin(), comp.begin() + 4);
    EXPECT_THROW((void)deflate_decompress(cut), FormatError);
  }
  {
    // Empty input: not even a block header.
    EXPECT_THROW((void)deflate_decompress(Bytes{}), FormatError);
  }
}

TEST(Deflate, MatchDistanceBeforeStreamStartRejected) {
  // Fixed-Huffman block whose first symbol is a match: the distance
  // necessarily reaches before the (empty) output. Symbol 257 (len 3) is
  // code 0b0000001 (7 bits); distance code 0 is 00000 (5 bits).
  BitWriter bw;
  bw.put(1, 1);
  bw.put(0b01, 2);
  bw.put(BitWriter::reverse(0b0000001, 7), 7);  // litlen symbol 257: length 3
  bw.put(BitWriter::reverse(0b00000, 5), 5);    // distance symbol 0: distance 1
  EXPECT_THROW((void)deflate_decompress(bw.finish()), FormatError);
}

// ---------------------------------------------------------------------
// Cross-validation against system zlib (reference implementation)
// ---------------------------------------------------------------------

#ifdef WCK_HAVE_ZLIB
Bytes zlib_ref_compress(std::span<const std::byte> input, int level) {
  uLongf bound = compressBound(static_cast<uLong>(input.size()));
  Bytes out(bound);
  EXPECT_EQ(compress2(reinterpret_cast<Bytef*>(out.data()), &bound,
                      reinterpret_cast<const Bytef*>(input.data()),
                      static_cast<uLong>(input.size()), level),
            Z_OK);
  out.resize(bound);
  return out;
}

Bytes zlib_ref_decompress(std::span<const std::byte> input, std::size_t expected) {
  Bytes out(expected);
  uLongf out_len = static_cast<uLongf>(expected);
  EXPECT_EQ(uncompress(reinterpret_cast<Bytef*>(out.data()), &out_len,
                       reinterpret_cast<const Bytef*>(input.data()),
                       static_cast<uLong>(input.size())),
            Z_OK);
  out.resize(out_len);
  return out;
}

TEST(ZlibInterop, ReferenceDecodesOurStreams) {
  for (const auto& c : round_trip_cases()) {
    SCOPED_TRACE(c.name);
    const Bytes ours = zlib_compress(c.data);
    EXPECT_EQ(zlib_ref_decompress(ours, c.data.size()), c.data);
  }
  // The checkpoint payload at every level, and the small-put regime:
  // 256 B..2 KiB slices of it.
  const Bytes& payload = fig9_payload();
  for (int level = 1; level <= 9; ++level) {
    const Bytes ours = zlib_compress(payload, DeflateOptions{level});
    EXPECT_TRUE(zlib_ref_decompress(ours, payload.size()) == payload) << "level=" << level;
  }
  for (const std::size_t len : {std::size_t{256}, std::size_t{700}, std::size_t{1024},
                                std::size_t{1500}, std::size_t{2048}}) {
    for (std::size_t k = 0; k < 4; ++k) {
      const std::size_t off = k * (payload.size() - len) / 3;
      const auto slice = std::span(payload).subspan(off, len);
      for (const int level : {1, 6, 9}) {
        const Bytes ours = zlib_compress(slice, DeflateOptions{level});
        EXPECT_TRUE(std::ranges::equal(zlib_ref_decompress(ours, len), slice))
            << "len=" << len << " off=" << off << " level=" << level;
      }
    }
  }
}

TEST(ZlibInterop, WeDecodeReferenceStreams) {
  for (const auto& c : round_trip_cases()) {
    SCOPED_TRACE(c.name);
    for (const int level : {1, 6, 9}) {
      const Bytes theirs = zlib_ref_compress(c.data, level);
      EXPECT_EQ(zlib_decompress(theirs), c.data) << "level=" << level;
    }
  }
}

/// A raw DEFLATE stream (no container) from system zlib; level 0 writes
/// stored blocks.
Bytes zlib_ref_raw_deflate(std::span<const std::byte> input, int level, int strategy) {
  z_stream zs{};
  EXPECT_EQ(deflateInit2(&zs, level, Z_DEFLATED, -15, 8, strategy), Z_OK);
  Bytes out(deflateBound(&zs, static_cast<uLong>(input.size())));
  zs.next_in = const_cast<Bytef*>(reinterpret_cast<const Bytef*>(input.data()));
  zs.avail_in = static_cast<uInt>(input.size());
  zs.next_out = reinterpret_cast<Bytef*>(out.data());
  zs.avail_out = static_cast<uInt>(out.size());
  EXPECT_EQ(deflate(&zs, Z_FINISH), Z_STREAM_END);
  out.resize(zs.total_out);
  deflateEnd(&zs);
  return out;
}

/// System zlib's raw inflate of `stream`: the decoded bytes, or nullopt
/// when zlib rejects the stream or it ends before its final block does.
std::optional<Bytes> zlib_ref_raw_inflate(std::span<const std::byte> stream) {
  z_stream zs{};
  EXPECT_EQ(inflateInit2(&zs, -15), Z_OK);
  zs.next_in = const_cast<Bytef*>(reinterpret_cast<const Bytef*>(stream.data()));
  zs.avail_in = static_cast<uInt>(stream.size());
  Bytes out;
  std::optional<Bytes> result;
  for (;;) {
    constexpr std::size_t kChunk = 1 << 16;
    const std::size_t at = out.size();
    out.resize(at + kChunk);
    zs.next_out = reinterpret_cast<Bytef*>(out.data() + at);
    zs.avail_out = static_cast<uInt>(kChunk);
    const int rc = inflate(&zs, Z_NO_FLUSH);
    out.resize(at + kChunk - zs.avail_out);
    if (rc == Z_STREAM_END) {
      result = std::move(out);
      break;
    }
    if (rc != Z_OK || (zs.avail_in == 0 && zs.avail_out != 0)) break;
  }
  inflateEnd(&zs);
  return result;
}

/// Our only rejection zlib does not share: a literal/length code that
/// is incomplete. zlib accepts one that holds a single 1-bit code (it
/// can only be end-of-block); RFC 1951 requires complete codes there.
constexpr const char* kStricterThanZlib = "incomplete Huffman code";

TEST(ZlibInterop, DifferentialInflateOnMutatedStreams) {
  // The stricter rule, on a hand-built block: a literal/length code with
  // one 1-bit code (end of block) and a single 1-bit distance code.
  {
    BitWriter bw;
    bw.put(1, 1);      // BFINAL
    bw.put(0b10, 2);   // dynamic
    bw.put(0, 5);      // HLIT = 257
    bw.put(0, 5);      // HDIST = 1
    bw.put(14, 4);     // HCLEN = 18: through code-length symbol 1
    for (int i = 0; i < 18; ++i) bw.put(i == 2 || i == 17 ? 1 : 0, 3);  // symbols 18 and 1
    // Canonical: symbol 1 -> code 0, symbol 18 -> code 1.
    bw.put(1, 1);
    bw.put(138 - 11, 7);  // 138 zero lengths
    bw.put(1, 1);
    bw.put(118 - 11, 7);  // 118 more: symbols 0..255
    bw.put(0, 1);         // end of block: length 1
    bw.put(0, 1);         // distance 0: length 1
    bw.put(0, 1);         // the block's only symbol, end of block
    const Bytes stream = bw.finish();
    const auto theirs = zlib_ref_raw_inflate(stream);
    ASSERT_TRUE(theirs.has_value());
    EXPECT_TRUE(theirs->empty());
    try {
      (void)deflate_decompress(stream);
      ADD_FAILURE() << "an incomplete literal/length code was accepted";
    } catch (const FormatError& e) {
      EXPECT_STREQ(e.what(), kStricterThanZlib);
    }
  }

  // Our streams and zlib's (levels 1/6/9, fixed codes, stored blocks) of
  // the checkpoint payload, slices of it and the round-trip inputs.
  const Bytes& payload = fig9_payload();
  std::vector<Bytes> inputs = {payload, Bytes(payload.begin() + 4096, payload.begin() + 6144),
                               Bytes(payload.begin() + 300000, payload.begin() + 316384)};
  for (auto& c : round_trip_cases()) inputs.push_back(std::move(c.data));
  std::vector<Bytes> streams;
  for (const Bytes& in : inputs) {
    for (const int level : {1, 6, 9}) {
      streams.push_back(deflate_compress(in, DeflateOptions{level}));
      streams.push_back(zlib_ref_raw_deflate(in, level, Z_DEFAULT_STRATEGY));
    }
    streams.push_back(zlib_ref_raw_deflate(in, 6, Z_FIXED));
    streams.push_back(zlib_ref_raw_deflate(in, 0, Z_DEFAULT_STRATEGY));
  }

  // Whenever we accept, zlib accepts with the same bytes; whenever zlib
  // accepts and we reject, it is for the stricter rule above.
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  const auto check = [&](const Bytes& stream, const std::string& what) {
    std::optional<Bytes> ours;
    std::string why;
    try {
      ours = deflate_decompress(stream);
    } catch (const FormatError& e) {
      why = e.what();
    }
    const std::optional<Bytes> theirs = zlib_ref_raw_inflate(stream);
    if (ours.has_value()) {
      ++accepted;
      ASSERT_TRUE(theirs.has_value()) << what << ": we accept, zlib rejects";
      ASSERT_TRUE(*ours == *theirs) << what << ": decoded bytes differ from zlib's";
    } else {
      ++rejected;
      if (theirs.has_value()) {
        EXPECT_EQ(why, kStricterThanZlib) << what << ": zlib accepts";
      }
    }
  };
  for (std::size_t i = 0; i < streams.size(); ++i) {
    check(streams[i], "stream " + std::to_string(i));
    ASSERT_EQ(accepted, i + 1) << "an unmutated stream was rejected";
  }

  Xoshiro256 rng(2015);
  constexpr int kMutations = 2400;
  for (int m = 0; m < kMutations; ++m) {
    const std::size_t which = rng.bounded(streams.size());
    Bytes stream = streams[which];
    const auto at = [&] { return static_cast<std::size_t>(rng.bounded(stream.size())); };
    const std::uint64_t kind = rng.bounded(4);
    if (kind == 0) {  // 1-4 bytes overwritten anywhere
      for (std::uint64_t k = 0, n = 1 + rng.bounded(4); k < n; ++k) {
        stream[at()] = static_cast<std::byte>(rng.bounded(256));
      }
    } else if (kind == 1) {  // 1-3 bit flips anywhere
      for (std::uint64_t k = 0, n = 1 + rng.bounded(3); k < n; ++k) {
        stream[at()] ^= static_cast<std::byte>(1u << rng.bounded(8));
      }
    } else if (kind == 2) {  // a bit flip in the first 64 bytes: block headers, code tables
      stream[static_cast<std::size_t>(rng.bounded(std::min<std::size_t>(64, stream.size())))] ^=
          static_cast<std::byte>(1u << rng.bounded(8));
    } else {  // truncation
      stream.resize(at());
    }
    check(stream, "mutation " + std::to_string(m) + " (kind " + std::to_string(kind) +
                      ") of stream " + std::to_string(which));
    if (HasFatalFailure()) return;
  }
  // Both outcomes must actually occur, or the comparison proves little.
  EXPECT_GT(accepted, streams.size() + kMutations / 20);
  EXPECT_GT(rejected, static_cast<std::size_t>(kMutations / 4));
}

TEST(ZlibInterop, CompressionRatioCompetitive) {
  const Bytes data = structured_bytes(500000, 21);
  const auto ours = zlib_compress(data, DeflateOptions{6}).size();
  const auto theirs = zlib_ref_compress(data, 6).size();
  // We do not need to beat zlib, but we must be in the same league.
  EXPECT_LE(ours, theirs * 3 / 2) << "ours=" << ours << " theirs=" << theirs;
}
#endif  // WCK_HAVE_ZLIB

}  // namespace
}  // namespace wck
