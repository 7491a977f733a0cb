// Tests for the sharded parallel deflate engine (src/deflate/parallel):
// round trips, bit-determinism across thread counts, frame-format
// robustness (truncation, CRC corruption, implausible headers), and the
// compressor integration (tag-4 streams whatever the worker count,
// WCK_THREADS resolution, size parity with zlib, legacy tags 1/2 still
// decoding).
#include "deflate/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/chunked.hpp"
#include "core/compressor.hpp"
#include "core/synthetic.hpp"
#include "deflate/deflate.hpp"
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

TEST(ShardedDeflate, RoundTripsAcrossSizes) {
  // Exercises: empty, sub-block, exact multiples, one-past boundaries.
  const std::size_t block = 1024;
  for (const std::size_t size :
       {std::size_t{0}, std::size_t{1}, std::size_t{1023}, std::size_t{1024}, std::size_t{1025},
        std::size_t{4096}, std::size_t{10000}}) {
    const Bytes input = make_payload(size);
    const Bytes packed = sharded_deflate_compress(input, {6, block, 2});
    EXPECT_TRUE(is_sharded_deflate(packed));
    const Bytes restored = sharded_deflate_decompress(packed, 2);
    EXPECT_EQ(restored, input) << "size " << size;
  }
}

TEST(ShardedDeflate, EmptyInputYieldsValidZeroBlockContainer) {
  const Bytes packed = sharded_deflate_compress({}, {6, 4096, 4});
  EXPECT_TRUE(is_sharded_deflate(packed));
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
  EXPECT_FALSE(is_sharded_deflate(bad_magic));
  EXPECT_FALSE(is_sharded_deflate({}));
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
  // Flip one byte in the last block's body: frame parsing stays valid,
  // so the corruption must be caught by that block's CRC-32.
  Bytes corrupt = packed;
  corrupt[corrupt.size() - 1] ^= static_cast<std::byte>(0x01);
  EXPECT_THROW((void)sharded_deflate_decompress(corrupt), Error);
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

TEST(CompressorSharded, LegacyZlibAndGzipStreamsStillDecode) {
  // Tags 1 (zlib) and 2 (gzip) are no longer written, but streams from
  // older store generations must restore and inspect exactly like the
  // formatted payload they wrap.
  const NdArray<double> field = make_temperature_field(Shape{40, 24}, 2);
  CompressionParams none;
  none.entropy = EntropyMode::kNone;
  const Bytes plain = WaveletCompressor(none).compress(field).data;
  const auto payload = std::span<const std::byte>(plain).subspan(1);
  const NdArray<double> expected = WaveletCompressor::decompress(plain);
  const StreamInfo expected_info = WaveletCompressor::inspect(plain);

  const std::pair<std::uint8_t, Bytes> legacy[] = {{1, zlib_compress(payload)},
                                                   {2, gzip_compress(payload)}};
  for (const auto& [tag, body] : legacy) {
    Bytes stream{static_cast<std::byte>(tag)};
    stream.insert(stream.end(), body.begin(), body.end());
    const NdArray<double> restored = WaveletCompressor::decompress(stream);
    ASSERT_EQ(restored.shape(), expected.shape()) << "tag " << int{tag};
    EXPECT_TRUE(std::equal(restored.values().begin(), restored.values().end(),
                           expected.values().begin()))
        << "tag " << int{tag};
    const StreamInfo info = WaveletCompressor::inspect(stream);
    EXPECT_EQ(info.entropy_tag, tag);
    EXPECT_EQ(info.shape, expected_info.shape);
    EXPECT_EQ(info.levels, expected_info.levels);
    EXPECT_EQ(info.quantizer, expected_info.quantizer);
    EXPECT_EQ(info.averages_count, expected_info.averages_count);
    EXPECT_EQ(info.high_count, expected_info.high_count);
    EXPECT_EQ(info.quantized_count, expected_info.quantized_count);
    EXPECT_EQ(info.exact_count, expected_info.exact_count);
    EXPECT_EQ(info.payload_bytes, expected_info.payload_bytes);
  }
}

TEST(CompressorSharded, ChunkedComposesWithSharding) {
  // Slab-level parallelism (caller's pool) nested over shard-level
  // parallelism (the engine's own pool) must round-trip and stay
  // deterministic.
  const NdArray<double> field = make_temperature_field(Shape{64, 64}, 13);
  ThreadPool pool(2);
  ChunkedParams params;
  params.chunks = 4;
  params.base.threads = 2;
  params.base.deflate_block_size = 2048;
  const CompressedArray a = chunked_compress(field, params, &pool);
  const CompressedArray b = chunked_compress(field, params, nullptr);
  EXPECT_EQ(a.data, b.data);
  const NdArray<double> restored = chunked_decompress(a.data, &pool);
  ASSERT_EQ(restored.shape(), field.shape());
  const NdArray<double> reference = chunked_decompress(a.data, nullptr);
  EXPECT_TRUE(std::equal(restored.values().begin(), restored.values().end(),
                         reference.values().begin()));
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
