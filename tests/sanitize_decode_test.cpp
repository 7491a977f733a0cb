// Decoder robustness under targeted corruption, designed to run under
// ASan/UBSan: every mutation of a valid stream must be rejected with a
// typed wck::Error (or, where checksums genuinely cannot see it, decoded
// to *some* valid result) — never an over-read, crash, or partial write
// into application state. Mutations come from util/mutate.hpp so each
// case replays deterministically from its seed.
#include <gtest/gtest.h>

#include <cstddef>
#include <initializer_list>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "ckpt/codec.hpp"
#include "core/compressor.hpp"
#include "core/synthetic.hpp"
#include "deflate/deflate.hpp"
#include "encode/payload.hpp"
#include "util/checksum.hpp"
#include "util/error.hpp"
#include "util/mutate.hpp"
#include "util/rng.hpp"

namespace wck {
namespace {

/// A hand-built, internally consistent Fig. 5 payload whose section
/// offsets we can compute exactly (shape 8x8 => 16 low + 48 high).
LossyPayload reference_payload() {
  LossyPayload p;
  p.shape = Shape{8, 8};
  p.levels = 1;
  p.quantizer = QuantizerKind::kSpike;
  p.averages = {0.0, 0.5, -0.5, 1.25};
  p.low_band.resize(16);
  for (std::size_t i = 0; i < p.low_band.size(); ++i) {
    p.low_band[i] = 0.01 * static_cast<double>(i);
  }
  p.quantized = Bitmap(48);
  for (std::size_t i = 0; i < 48; i += 2) p.quantized.set(i, true);  // 24 set
  for (std::size_t i = 0; i < 24; ++i) {
    p.indices.push_back(static_cast<std::uint8_t>(i % p.averages.size()));
  }
  p.exact_values.resize(24, 3.5);
  return p;
}

/// Byte ranges of the Fig. 5 sections inside encode_payload() output.
struct PayloadLayout {
  std::size_t header_end;    // magic..count varints
  std::size_t averages_end;  // averages[] table
  std::size_t low_end;       // raw low band
  std::size_t bitmap_end;    // quantization bitmap
  std::size_t index_end;     // 1-byte indexes
  std::size_t exact_end;     // exact doubles (CRC follows)
};

PayloadLayout layout_of(const LossyPayload& p) {
  PayloadLayout l{};
  // magic(4) version(1) quantizer(1) wavelet(1) rank(1) levels(1) +
  // one varint byte per extent (extents < 128) + 4 count varints (< 128).
  l.header_end = 9 + p.shape.rank() + 4;
  l.averages_end = l.header_end + 8 * p.averages.size();
  l.low_end = l.averages_end + 8 * p.low_band.size();
  l.bitmap_end = l.low_end + p.quantized.byte_size();
  l.index_end = l.bitmap_end + p.indices.size();
  l.exact_end = l.index_end + 8 * p.exact_values.size();
  return l;
}

TEST(SanitizeDecode, PayloadLayoutMatchesEncoder) {
  const LossyPayload p = reference_payload();
  const Bytes enc = encode_payload(p);
  EXPECT_EQ(enc.size(), layout_of(p).exact_end + 4);  // + trailing CRC
  const LossyPayload back = decode_payload(enc);
  EXPECT_EQ(back.low_band, p.low_band);
  EXPECT_EQ(back.indices, p.indices);
}

/// Mutations restricted to each Fig. 5 section must all be detected:
/// the trailing CRC-32 covers every byte before it.
TEST(SanitizeDecode, PayloadSectionCorruptionAlwaysRejected) {
  const LossyPayload p = reference_payload();
  const Bytes enc = encode_payload(p);
  const PayloadLayout l = layout_of(p);
  const std::pair<std::size_t, std::size_t> sections[] = {
      {0, l.header_end},           {l.header_end, l.averages_end},
      {l.averages_end, l.low_end}, {l.low_end, l.bitmap_end},
      {l.bitmap_end, l.index_end}, {l.index_end, l.exact_end},
  };
  std::uint64_t seed = 1000;
  for (const auto& [lo, hi] : sections) {
    Xoshiro256 rng(seed++);
    for (int t = 0; t < 300; ++t) {
      Bytes bad = enc;
      const Mutation m = mutate(bad, rng, lo, hi);
      if (bad == enc) continue;  // some kinds can be no-ops (e.g. zeroing zeros)
      try {
        (void)decode_payload(bad);
        FAIL() << "accepted corrupt payload: " << describe(m) << " section [" << lo << "," << hi
               << ") seed " << seed - 1 << " trial " << t;
      } catch (const Error&) {
        // detected, as required
      }
    }
  }
}

TEST(SanitizeDecode, PayloadEveryPrefixRejected) {
  const Bytes enc = encode_payload(reference_payload());
  for (std::size_t n = 0; n < enc.size(); ++n) {
    const Bytes prefix(enc.begin(), enc.begin() + static_cast<std::ptrdiff_t>(n));
    EXPECT_THROW((void)decode_payload(prefix), Error) << "prefix length " << n;
  }
}

/// A header-only payload with a valid CRC whose counts claim far more
/// data than the stream holds: `extents` of a rank-extents.size() array
/// and the four section counts. Nothing but the header and the CRC.
Bytes header_only_payload(std::initializer_list<std::uint64_t> extents, std::uint64_t n_low,
                          std::uint64_t n_high) {
  ByteWriter w;
  w.u32(0x4C4B4357);  // "WCKL"
  w.u8(2);            // version
  w.u8(static_cast<std::uint8_t>(QuantizerKind::kSpike));
  w.u8(static_cast<std::uint8_t>(WaveletKind::kHaar));
  w.u8(static_cast<std::uint8_t>(extents.size()));
  w.u8(1);  // levels
  for (const std::uint64_t e : extents) w.varint(e);
  w.varint(0);  // averages
  w.varint(n_low);
  w.varint(n_high);
  w.varint(0);  // indexes
  w.u32(crc32(std::span<const std::byte>(w.buffer())));
  return w.take();
}

/// Header counts are checked against the bytes present before anything
/// is sized: a few dozen bytes must not make a decoder allocate (or try
/// to allocate) the array they describe.
TEST(SanitizeDecode, HeaderCountsCannotForceAllocation) {
  const Bytes streams[] = {
      // 2^25 doubles (256 MiB) in 28 bytes once the entropy tag is added.
      header_only_payload({std::uint64_t{1} << 25}, std::uint64_t{1} << 24,
                          std::uint64_t{1} << 24),
      // 2^44 elements: once std::bad_alloc, not a FormatError.
      header_only_payload({std::uint64_t{1} << 22, std::uint64_t{1} << 22},
                          std::uint64_t{1} << 42, std::uint64_t{3} << 42),
      // Extents whose product wraps to 0 in 64 bits.
      header_only_payload({std::uint64_t{1} << 32, std::uint64_t{1} << 32}, 0, 0),
  };
  for (const Bytes& payload : streams) {
    Bytes stream{std::byte{0}};  // entropy tag 0: the payload as stored
    stream.insert(stream.end(), payload.begin(), payload.end());
    EXPECT_THROW((void)decode_payload(payload), FormatError) << payload.size() << " bytes";
    EXPECT_THROW((void)WaveletCompressor::decompress(stream), FormatError) << stream.size();
    EXPECT_THROW((void)WaveletCompressor::inspect(stream), FormatError) << stream.size();
  }
  EXPECT_EQ(streams[0].size() + 1, 28u);
}

/// Full compressed stream (payload + DEFLATE container): mutations land
/// in the entropy-coded bytes, exercising BitReader / HuffmanDecoder /
/// match-copy bounds. Error or (rarely) a clean decode are both fine;
/// anything else is a defect.
TEST(SanitizeDecode, CompressorStreamMutationsNeverCrash) {
  const auto field = make_smooth_field(Shape{32, 24}, 77);
  CompressionParams params;
  params.quantizer.divisions = 64;
  const Bytes stream = WaveletCompressor(params).compress(field).data;
  Xoshiro256 rng(2024);
  int rejected = 0;
  const int trials = 600;
  for (int t = 0; t < trials; ++t) {
    Bytes bad = stream;
    const int n_mut = 1 + static_cast<int>(rng.bounded(3));
    Mutation last;
    for (int i = 0; i < n_mut; ++i) last = mutate(bad, rng);
    try {
      (void)WaveletCompressor::decompress(bad);
    } catch (const Error&) {
      ++rejected;
    } catch (const std::exception& e) {
      FAIL() << "non-library exception after " << describe(last) << " trial " << t << ": "
             << e.what();
    }
  }
  // zlib Adler-32 + payload CRC make silent acceptance essentially
  // impossible; a tiny residue covers flips in ignored header bits.
  EXPECT_GT(rejected, trials * 95 / 100);
}

/// Raw DEFLATE (no container checksum): corrupt streams may decode to
/// garbage, but must never over-read or escape the typed-error contract.
TEST(SanitizeDecode, RawDeflateMutationsNeverCrash) {
  Bytes input(4096);
  Xoshiro256 fill(5);
  for (std::size_t i = 0; i < input.size(); ++i) {
    // Compressible mix: long runs + noise, so all block types appear.
    input[i] = (i % 64 < 48) ? std::byte{0x41} : static_cast<std::byte>(fill.bounded(256));
  }
  for (const int level : {1, 6, 9}) {
    const Bytes stream = deflate_compress(input, DeflateOptions{level});
    Xoshiro256 rng(3000 + static_cast<std::uint64_t>(level));
    for (int t = 0; t < 400; ++t) {
      Bytes bad = stream;
      const Mutation m = mutate(bad, rng);
      try {
        (void)deflate_decompress(bad);
      } catch (const Error&) {
      } catch (const std::exception& e) {
        FAIL() << "level " << level << " trial " << t << " (" << describe(m)
               << "): " << e.what();
      }
    }
  }
}

/// Sharded (WCKP) container: mutations land in the frame header, the
/// per-block table, or the concatenated block bodies — parallel decode
/// must reject them with a typed error (per-block CRC-32 catches body
/// corruption) or, where a flip is genuinely invisible (reserved flags
/// byte), decode cleanly. Never a crash, over-read, or allocation bomb.
TEST(SanitizeDecode, ShardedContainerMutationsNeverCrash) {
  const auto field = make_smooth_field(Shape{48, 32}, 33);
  CompressionParams params;
  params.quantizer.divisions = 64;
  params.threads = 2;
  params.deflate_block_size = 2048;  // several blocks
  const Bytes stream = WaveletCompressor(params).compress(field).data;
  ASSERT_EQ(static_cast<std::uint8_t>(stream[0]), 4);  // sharded tag
  Xoshiro256 rng(6060);
  int rejected = 0;
  const int trials = 600;
  for (int t = 0; t < trials; ++t) {
    Bytes bad = stream;
    const int n_mut = 1 + static_cast<int>(rng.bounded(3));
    Mutation last;
    for (int i = 0; i < n_mut; ++i) last = mutate(bad, rng);
    try {
      (void)WaveletCompressor::decompress(bad);
    } catch (const Error&) {
      ++rejected;
    } catch (const std::exception& e) {
      FAIL() << "non-library exception after " << describe(last) << " trial " << t << ": "
             << e.what();
    }
  }
  // Per-block CRC-32 + payload CRC leave only reserved-bit flips
  // undetected.
  EXPECT_GT(rejected, trials * 95 / 100);
}

/// Restores must be transactional: after a rejected checkpoint, every
/// registered array still holds its pre-restore contents — even when the
/// corruption hits a *later* field than the ones already decoded.
TEST(SanitizeDecode, CheckpointRestoreIsAtomicUnderCorruption) {
  NdArray<double> a = make_smooth_field(Shape{16, 16}, 1);
  NdArray<double> b = make_smooth_field(Shape{8, 8}, 2);
  CheckpointRegistry reg;
  reg.add("alpha", &a);
  reg.add("beta", &b);
  const Bytes good = serialize_checkpoint(reg, GzipCodec{}, 7);

  Xoshiro256 rng(4242);
  for (int t = 0; t < 400; ++t) {
    Bytes bad = good;
    const Mutation m = mutate(bad, rng);
    NdArray<double> ra(Shape{16, 16}, -1.0);
    NdArray<double> rb(Shape{8, 8}, -2.0);
    CheckpointRegistry rreg;
    rreg.add("alpha", &ra);
    rreg.add("beta", &rb);
    bool threw = false;
    try {
      (void)restore_checkpoint(bad, rreg);
    } catch (const Error&) {
      threw = true;
    } catch (const std::exception& e) {
      FAIL() << "non-library exception, trial " << t << " (" << describe(m) << "): " << e.what();
    }
    if (threw) {
      // No partial output: both targets untouched.
      EXPECT_EQ(ra[0], -1.0) << "partial restore, trial " << t << " (" << describe(m) << ")";
      EXPECT_EQ(rb[0], -2.0) << "partial restore, trial " << t << " (" << describe(m) << ")";
    }
  }
}

}  // namespace
}  // namespace wck
