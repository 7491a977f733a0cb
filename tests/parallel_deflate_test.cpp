// Tests for the sharded parallel deflate engine (src/deflate/parallel):
// round trips, bit-determinism across thread counts, frame-format
// robustness (truncation, CRC corruption, implausible headers), and the
// compressor integration (tag-4 streams whatever the worker count,
// WCK_THREADS resolution, size parity with zlib, and the read policy:
// tags 0, 3 and 4 restore, every other tag is rejected).
#include "deflate/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/compressor.hpp"
#include "core/synthetic.hpp"
#include "deflate/deflate.hpp"
#include "util/checksum.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace wck {
namespace {

Bytes make_payload(std::size_t size, std::uint64_t seed = 7) {
  Xoshiro256 rng(seed);
  Bytes data(size);
  // Mildly compressible: runs of a few repeated bytes.
  std::size_t i = 0;
  while (i < size) {
    const auto value = static_cast<std::byte>(rng() & 0xFF);
    const std::size_t run = 1 + (rng() % 8);
    for (std::size_t r = 0; r < run && i < size; ++r) data[i++] = value;
  }
  return data;
}

/// Scoped environment variable override (removed on destruction).
/// Production code reads WCK_* variables through the wck::env cache,
/// which memoizes the first real lookup — plain setenv would be masked
/// by the cache, so this goes through the cache's test override hook.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    env::set_override(name_, value == nullptr
                                 ? std::nullopt
                                 : std::optional<std::string>(value));
  }
  ~ScopedEnv() { env::clear_override(name_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
};

/// Expects both decompress and inspect to refuse `stream` as carrying
/// the unknown entropy tag `tag`.
void expect_unknown_tag(const Bytes& stream, int tag) {
  const std::string expected = "unknown entropy tag " + std::to_string(tag);
  for (const bool inspect : {false, true}) {
    try {
      if (inspect) {
        (void)WaveletCompressor::inspect(stream);
      } else {
        (void)WaveletCompressor::decompress(stream);
      }
      ADD_FAILURE() << "tag " << tag << " accepted (inspect=" << inspect << ")";
    } catch (const FormatError& e) {
      EXPECT_EQ(std::string(e.what()), expected) << "inspect=" << inspect;
    }
  }
}

TEST(ShardedDeflate, RoundTripsAcrossSizes) {
  // Exercises: empty, sub-block, exact multiples, one-past boundaries.
  const std::size_t block = 1024;
  for (const std::size_t size :
       {std::size_t{0}, std::size_t{1}, std::size_t{1023}, std::size_t{1024}, std::size_t{1025},
        std::size_t{4096}, std::size_t{10000}}) {
    const Bytes input = make_payload(size);
    const Bytes packed = sharded_deflate_compress(input, {6, block, 2});
    const Bytes restored = sharded_deflate_decompress(packed, 2);
    EXPECT_EQ(restored, input) << "size " << size;
  }
}

TEST(ShardedDeflate, EmptyInputYieldsValidZeroBlockContainer) {
  const Bytes packed = sharded_deflate_compress({}, {6, 4096, 4});
  const Bytes restored = sharded_deflate_decompress(packed);
  EXPECT_TRUE(restored.empty());
}

TEST(ShardedDeflate, BitDeterministicAcrossThreadCounts) {
  const Bytes input = make_payload(100 * 1024);
  const Bytes reference = sharded_deflate_compress(input, {6, 8192, 1});
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    const Bytes packed = sharded_deflate_compress(input, {6, 8192, threads});
    EXPECT_EQ(packed, reference) << "threads=" << threads;
  }
}

TEST(ShardedDeflate, BlockSizeChangesBytesButNotContent) {
  const Bytes input = make_payload(64 * 1024);
  const Bytes a = sharded_deflate_compress(input, {6, 4096, 2});
  const Bytes b = sharded_deflate_compress(input, {6, 16384, 2});
  EXPECT_NE(a, b);  // different framing
  EXPECT_EQ(sharded_deflate_decompress(a), input);
  EXPECT_EQ(sharded_deflate_decompress(b), input);
}

TEST(ShardedDeflate, SizeWithinTwoPercentOfSerial) {
  // The per-block window reset must not cost more than the gated 2%
  // drift at the default block size on a checkpoint-like payload.
  const NdArray<double> field = make_temperature_field(Shape{256, 128}, 11);
  const auto raw = std::as_bytes(field.values());
  const Bytes serial = zlib_compress(raw, {});
  const Bytes sharded = sharded_deflate_compress(Bytes(raw.begin(), raw.end()), {});
  EXPECT_LE(static_cast<double>(sharded.size()),
            static_cast<double>(serial.size()) * 1.02)
      << "sharded " << sharded.size() << " vs serial " << serial.size();
}

TEST(ShardedDeflate, RejectsBadMagicAndVersion) {
  const Bytes packed = sharded_deflate_compress(make_payload(100), {6, 64, 1});
  Bytes bad_magic = packed;
  bad_magic[0] = static_cast<std::byte>(0x00);
  EXPECT_THROW((void)sharded_deflate_decompress(bad_magic), FormatError);
  Bytes bad_version = packed;
  bad_version[4] = static_cast<std::byte>(9);
  EXPECT_THROW((void)sharded_deflate_decompress(bad_version), FormatError);
}

TEST(ShardedDeflate, RejectsTruncatedFrames) {
  // Every proper prefix must fail loudly with a typed error, never
  // crash or return data.
  const Bytes packed = sharded_deflate_compress(make_payload(5000), {6, 1024, 2});
  for (std::size_t len = 0; len < packed.size(); ++len) {
    const std::span<const std::byte> prefix(packed.data(), len);
    EXPECT_THROW((void)sharded_deflate_decompress(prefix), Error) << "prefix " << len;
  }
}

TEST(ShardedDeflate, RejectsCorruptedBlockCrc) {
  const Bytes input = make_payload(8192);
  const Bytes packed = sharded_deflate_compress(input, {6, 1024, 2});
  // Flip one bit of the last block's stored CRC-32, the 4 bytes just
  // before the bodies: framing and inflate stay valid, so only that
  // block's CRC check can catch it — inline at one worker, and inside a
  // pool task (rethrown to the caller) at four.
  std::size_t bodies = 0;
  for (std::size_t offset = 0; offset < input.size(); offset += 1024) {
    bodies += deflate_compress(std::span<const std::byte>(input).subspan(offset, 1024)).size();
  }
  Bytes corrupt = packed;
  corrupt[packed.size() - bodies - 1] ^= static_cast<std::byte>(0x01);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    EXPECT_THROW((void)sharded_deflate_decompress(corrupt, threads), CorruptDataError)
        << "threads=" << threads;
  }
}

TEST(ShardedDeflate, CorruptFirstBlockCrcNamedAtEveryWidth) {
  // Strip 0 owns block 0 at every worker count; a bad stored CRC-32 there
  // must surface as that block's CorruptDataError, inline and pooled.
  const Bytes input = make_payload(6 * 1024);
  const Bytes packed = sharded_deflate_compress(input, {6, 1024, 1});
  ByteReader r(packed);
  (void)r.u32();     // magic
  (void)r.u8();      // version
  (void)r.u8();      // flags
  (void)r.varint();  // block size
  (void)r.varint();  // total
  (void)r.varint();  // block count
  (void)r.varint();  // block 0 compressed size
  (void)r.varint();  // block 0 uncompressed size
  Bytes corrupt = packed;
  corrupt[r.position()] ^= static_cast<std::byte>(0x01);
  for (std::size_t threads = 1; threads <= 4; ++threads) {
    try {
      (void)sharded_deflate_decompress(corrupt, threads);
      ADD_FAILURE() << "corrupt block 0 accepted at threads=" << threads;
    } catch (const CorruptDataError& e) {
      EXPECT_NE(std::string(e.what()).find("block 0"), std::string::npos)
          << "threads=" << threads << ": " << e.what();
    }
  }
}

TEST(ShardedDeflate, StripsCoverOddBlockCountsAtAnyWidth) {
  // Seven blocks: no worker count from 2 to 8 divides them evenly, and
  // 8 exceeds the block count, so some strips get one block fewer and
  // the width is clamped. Bytes and restores must not change.
  const Bytes input = make_payload(7 * 1024 - 100);
  const Bytes reference = sharded_deflate_compress(input, {6, 1024, 1});
  for (std::size_t threads = 2; threads <= 8; ++threads) {
    EXPECT_EQ(sharded_deflate_compress(input, {6, 1024, threads}), reference)
        << "threads=" << threads;
    EXPECT_EQ(sharded_deflate_decompress(reference, threads), input) << "threads=" << threads;
  }
}

TEST(ShardedDeflate, PoolDecodesAgainAfterAFailedDecode) {
  // A block error thrown inside a pool task must leave the process-wide
  // pool able to serve the next restart.
  const Bytes input = make_payload(16 * 1024);
  const Bytes packed = sharded_deflate_compress(input, {6, 1024, 4});
  Bytes corrupt = packed;
  corrupt[corrupt.size() - 1] ^= static_cast<std::byte>(0x01);
  EXPECT_THROW((void)sharded_deflate_decompress(corrupt, 4), Error);
  EXPECT_EQ(sharded_deflate_decompress(packed, 4), input);
}

TEST(ShardedDeflate, RejectsImplausibleBlockCount) {
  // A hand-built header claiming 2^40 output bytes from a tiny input
  // must be rejected before any allocation (allocation-bomb guard).
  ByteWriter w;
  w.u32(0x504B4357);
  w.u8(1);
  w.u8(0);
  w.varint(1024);                      // block_size
  w.varint(1ull << 40);                // total: absurd for a tiny container
  w.varint((1ull << 40) / 1024);       // matching block count
  EXPECT_THROW((void)sharded_deflate_decompress(w.buffer()), FormatError);
}

TEST(ShardedDeflate, RejectsBlockThatInflatesPastItsSize) {
  // One block that claims 1 KiB but whose body inflates to 1 MiB: the
  // decoder stops at the claimed size instead of inflating the rest.
  const Bytes body = deflate_compress(Bytes(1 << 20, std::byte{0x5A}));
  ByteWriter w;
  w.u32(0x504B4357);
  w.u8(1);
  w.u8(0);
  w.varint(1024);  // block_size
  w.varint(1024);  // total
  w.varint(1);     // block count
  w.varint(body.size());
  w.varint(1024);
  w.u32(0);  // CRC-32: never reached
  w.raw(body.data(), body.size());
  try {
    (void)sharded_deflate_decompress(w.buffer(), 1);
    ADD_FAILURE() << "a block inflating past its size was accepted";
  } catch (const FormatError& e) {
    // Thrown where the output crosses 1 KiB, not after a full decode.
    EXPECT_NE(std::string(e.what()).find("past its expected 1024 bytes"), std::string::npos)
        << e.what();
  }
}

TEST(ShardedDeflate, RejectsBlockCountMismatch) {
  const Bytes packed = sharded_deflate_compress(make_payload(4096), {6, 1024, 1});
  // Rebuild the header with an off-by-one block count; table/body bytes
  // no longer agree with the derived count.
  ByteReader r(packed);
  (void)r.u32();
  (void)r.u8();
  (void)r.u8();
  const std::uint64_t block_size = r.varint();
  const std::uint64_t total = r.varint();
  const std::uint64_t count = r.varint();
  ByteWriter w;
  w.u32(0x504B4357);
  w.u8(1);
  w.u8(0);
  w.varint(block_size);
  w.varint(total);
  w.varint(count + 1);
  w.raw(packed.data() + r.position(), packed.size() - r.position());
  EXPECT_THROW((void)sharded_deflate_decompress(w.buffer()), FormatError);
}

TEST(ShardedDeflate, RejectsTrailingBytes) {
  Bytes packed = sharded_deflate_compress(make_payload(2048), {6, 512, 1});
  packed.push_back(std::byte{0});
  EXPECT_THROW((void)sharded_deflate_decompress(packed), FormatError);
}

TEST(ResolveDeflateThreads, ExplicitRequestWins) {
  const ScopedEnv env("WCK_THREADS", "8");
  EXPECT_EQ(resolve_deflate_threads(3), std::size_t{3});
  EXPECT_EQ(resolve_deflate_threads(1), std::size_t{1});
  EXPECT_THROW((void)resolve_deflate_threads(-1), InvalidArgumentError);
}

TEST(ResolveDeflateThreads, EnvControlsDefault) {
  {
    const ScopedEnv env("WCK_THREADS", nullptr);
    EXPECT_EQ(resolve_deflate_threads(0), std::size_t{1});
  }
  {
    const ScopedEnv env("WCK_THREADS", "");
    EXPECT_EQ(resolve_deflate_threads(0), std::size_t{1});
  }
  {
    const ScopedEnv env("WCK_THREADS", "4");
    EXPECT_EQ(resolve_deflate_threads(0), std::size_t{4});
  }
  {
    const ScopedEnv env("WCK_THREADS", "max");
    EXPECT_GE(resolve_deflate_threads(0), std::size_t{1});
  }
}

TEST(ResolveDeflateThreads, UnparsableEnvThrowsNamingTheValue) {
  for (const char* value : {"nonsense", "-2", "4x"}) {
    const ScopedEnv env("WCK_THREADS", value);
    try {
      (void)resolve_deflate_threads(0);
      ADD_FAILURE() << "WCK_THREADS=" << value << " was accepted";
    } catch (const InvalidArgumentError& e) {
      EXPECT_NE(std::string(e.what()).find(value), std::string::npos) << e.what();
    }
  }
}

TEST(CompressorSharded, NegativeThreadsRejected) {
  CompressionParams p;
  p.threads = -1;
  EXPECT_THROW(WaveletCompressor{p}, InvalidArgumentError);
}

TEST(CompressorSharded, MultiBlockRoundTripsWithTag4) {
  const NdArray<double> field = make_temperature_field(Shape{64, 48}, 5);
  CompressionParams p;
  p.threads = 2;
  p.deflate_block_size = 4096;  // small enough for several blocks
  const WaveletCompressor compressor(p);
  const CompressedArray comp = compressor.compress(field);
  EXPECT_EQ(static_cast<std::uint8_t>(comp.data[0]), 4);  // WCKP
  EXPECT_EQ(WaveletCompressor::inspect(comp.data).entropy_tag, 4);

  // Restore must be bit-identical to the unentropy-coded stream's:
  // the container only changes the lossless stage.
  CompressionParams none = p;
  none.entropy = EntropyMode::kNone;
  const NdArray<double> restored = WaveletCompressor::decompress(comp.data);
  const NdArray<double> reference =
      WaveletCompressor::decompress(WaveletCompressor(none).compress(field).data);
  ASSERT_EQ(restored.shape(), reference.shape());
  EXPECT_TRUE(std::equal(restored.values().begin(), restored.values().end(),
                         reference.values().begin()));
}

TEST(CompressorSharded, DefaultStreamIsOneWckpBlockNearZlibSize) {
  // The default block size holds this payload whole: one block, and
  // within 2% of a single zlib stream of the same payload.
  const NdArray<double> field = make_temperature_field(Shape{96, 64}, 3);
  CompressionParams none;
  none.entropy = EntropyMode::kNone;
  const CompressedArray formatted = WaveletCompressor(none).compress(field);
  ASSERT_LT(formatted.payload_bytes, kDefaultDeflateBlockSize);
  const CompressedArray comp = WaveletCompressor{}.compress(field);
  ASSERT_EQ(static_cast<std::uint8_t>(comp.data[0]), 4);
  const auto body = std::span<const std::byte>(comp.data).subspan(1);
  ByteReader r(body);
  (void)r.u32();  // magic
  (void)r.u8();   // version
  (void)r.u8();   // flags
  (void)r.varint();  // block size
  (void)r.varint();  // total
  EXPECT_EQ(r.varint(), 1u);  // block count
  const Bytes zlib = zlib_compress(std::span<const std::byte>(formatted.data).subspan(1));
  EXPECT_LE(static_cast<double>(comp.data.size()), static_cast<double>(zlib.size() + 1) * 1.02);
}

TEST(CompressorSharded, IdenticalStreamsForAnyThreadSetting) {
  // Neither WCK_THREADS nor CompressionParams::threads may change the
  // bytes: both only pick the worker count. Default params on the
  // paper's 1156x82x2 field give a multi-block payload (~545 KB).
  const NdArray<double> field = make_temperature_field(Shape{1156, 82, 2}, 3);
  const CompressionParams p;  // threads = 0: defer to environment
  std::vector<Bytes> streams;
  for (const char* value : {static_cast<const char*>(nullptr), "1", "2", "max"}) {
    const ScopedEnv env("WCK_THREADS", value);
    streams.push_back(WaveletCompressor(p).compress(field).data);
  }
  for (int threads = 1; threads <= 4; ++threads) {
    CompressionParams q = p;
    q.threads = threads;
    streams.push_back(WaveletCompressor(q).compress(field).data);
  }
  EXPECT_EQ(static_cast<std::uint8_t>(streams[0][0]), 4);
  for (std::size_t i = 1; i < streams.size(); ++i) {
    EXPECT_EQ(streams[i], streams[0]) << "setting #" << i;
  }
}

TEST(CompressorSharded, RetiredZlibAndGzipTagsAreRejected) {
  // Tags 1 (zlib) and 2 (gzip) are no longer written, so by the
  // format-read policy they are no longer read either: a well-formed
  // zlib or gzip body behind them is an unknown entropy tag.
  const NdArray<double> field = make_temperature_field(Shape{40, 24}, 2);
  CompressionParams none;
  none.entropy = EntropyMode::kNone;
  const Bytes plain = WaveletCompressor(none).compress(field).data;
  const auto payload = std::span<const std::byte>(plain).subspan(1);

  const std::pair<std::uint8_t, Bytes> retired[] = {{1, zlib_compress(payload)},
                                                    {2, gzip_compress(payload)}};
  for (const auto& [tag, body] : retired) {
    Bytes stream(body.size() + 1);
    stream[0] = static_cast<std::byte>(tag);
    std::copy(body.begin(), body.end(), stream.begin() + 1);
    expect_unknown_tag(stream, tag);
  }
}

TEST(CompressorSharded, TagsOutsideTheWrittenSetAreRejected) {
  // The "only if" half of the read policy beyond tags 1 and 2: a valid
  // formatted payload behind any tag the encoder never writes is refused.
  const NdArray<double> field = make_temperature_field(Shape{40, 24}, 2);
  CompressionParams none;
  none.entropy = EntropyMode::kNone;
  Bytes stream = WaveletCompressor(none).compress(field).data;
  for (const int tag : {5, 6, 127, 255}) {
    stream[0] = static_cast<std::byte>(tag);
    expect_unknown_tag(stream, tag);
  }
}

TEST(CompressorSharded, RetiredWaveletKindsAreRejected) {
  // The read policy applied to the payload's wavelet byte: Haar (0) is
  // the only transform the encoder writes, so the CDF 5/3 (1) and 9/7
  // (2) kinds it once wrote are refused even behind a valid CRC-32.
  const NdArray<double> field = make_temperature_field(Shape{40, 24}, 2);
  CompressionParams none;
  none.entropy = EntropyMode::kNone;
  Bytes stream = WaveletCompressor(none).compress(field).data;
  // Tag, then the payload: magic (4), version, quantizer, wavelet.
  constexpr std::size_t kWaveletByte = 1 + 4 + 1 + 1;
  ASSERT_EQ(static_cast<int>(stream[kWaveletByte]), 0);
  for (const int kind : {1, 2}) {
    stream[kWaveletByte] = static_cast<std::byte>(kind);
    const auto payload = std::span<const std::byte>(stream).subspan(1);
    const std::uint32_t crc = crc32(payload.first(payload.size() - 4));
    for (std::size_t i = 0; i < 4; ++i) {
      stream[stream.size() - 4 + i] = static_cast<std::byte>(crc >> (8 * i));
    }
    for (const bool inspect : {false, true}) {
      try {
        if (inspect) {
          (void)WaveletCompressor::inspect(stream);
        } else {
          (void)WaveletCompressor::decompress(stream);
        }
        ADD_FAILURE() << "wavelet kind " << kind << " accepted (inspect=" << inspect << ")";
      } catch (const FormatError& e) {
        EXPECT_EQ(std::string(e.what()), "payload: unknown wavelet kind")
            << "kind=" << kind << " inspect=" << inspect;
      }
    }
  }
}

TEST(CompressorSharded, EveryWrittenTagIsReadable) {
  // The "if" half of the read policy: each tag the encoder writes (0 no
  // entropy stage, 3 Huffman-only, 4 WCKP) restores and inspects, and
  // all three restore the same values, since the stage is lossless.
  const NdArray<double> field = make_temperature_field(Shape{40, 24}, 4);
  const std::pair<EntropyMode, int> written[] = {
      {EntropyMode::kNone, 0}, {EntropyMode::kHuffmanOnly, 3}, {EntropyMode::kDeflate, 4}};
  std::vector<NdArray<double>> restored;
  for (const auto& [mode, tag] : written) {
    CompressionParams p;
    p.entropy = mode;
    const Bytes stream = WaveletCompressor(p).compress(field).data;
    ASSERT_EQ(static_cast<int>(stream[0]), tag);
    EXPECT_EQ(WaveletCompressor::inspect(stream).entropy_tag, tag);
    restored.push_back(WaveletCompressor::decompress(stream));
  }
  for (std::size_t i = 1; i < restored.size(); ++i) {
    ASSERT_EQ(restored[i].shape(), restored[0].shape()) << "tag " << written[i].second;
    EXPECT_TRUE(std::equal(restored[i].values().begin(), restored[i].values().end(),
                           restored[0].values().begin()))
        << "tag " << written[i].second;
  }
}

TEST(QuantizeFusion, PrecomputedRangeIsBitIdentical) {
  // The compressor now folds min/max during band collection and hands
  // the range to analyze(); both paths must produce identical schemes.
  Xoshiro256 rng(21);
  std::vector<double> values(10000);
  for (double& v : values) v = rng.uniform(-3.0, 5.0);
  double lo = values[0];
  double hi = values[0];
  for (const double v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const ValueRange range{lo, hi};
  for (const QuantizerKind kind : {QuantizerKind::kSimple, QuantizerKind::kSpike}) {
    QuantizerConfig cfg;
    cfg.kind = kind;
    const QuantizationScheme with = QuantizationScheme::analyze(values, cfg, &range);
    const QuantizationScheme without = QuantizationScheme::analyze(values, cfg);
    EXPECT_EQ(with.averages(), without.averages());
    EXPECT_EQ(with.quant_min(), without.quant_min());
    EXPECT_EQ(with.quant_max(), without.quant_max());
    for (const double v : values) {
      ASSERT_EQ(with.classify(v), without.classify(v));
    }
  }
}

}  // namespace
}  // namespace wck
