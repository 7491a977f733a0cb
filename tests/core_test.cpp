// Integration tests for the full lossy compression pipeline (Fig. 1):
// wavelet -> quantization -> encoding -> formatting -> deflate.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/compressor.hpp"
#include "core/synthetic.hpp"
#include "deflate/deflate.hpp"
#include "encode/payload.hpp"
#include "telemetry/telemetry.hpp"
#include "util/checksum.hpp"
#include "util/error.hpp"
#include "wavelet/haar.hpp"

namespace wck {
namespace {

CompressionParams spike_params(int n, EntropyMode entropy = EntropyMode::kDeflate) {
  CompressionParams p;
  p.quantizer.kind = QuantizerKind::kSpike;
  p.quantizer.divisions = n;
  p.quantizer.spike_partitions = 64;
  p.entropy = entropy;
  return p;
}

CompressionParams simple_params(int n, EntropyMode entropy = EntropyMode::kDeflate) {
  CompressionParams p = spike_params(n, entropy);
  p.quantizer.kind = QuantizerKind::kSimple;
  return p;
}

TEST(Compressor, RoundTripShapeAndErrorSmall) {
  const auto field = make_smooth_field(Shape{64, 32, 4}, 1);
  const WaveletCompressor c(spike_params(128));
  const auto rt = c.round_trip(field);
  EXPECT_EQ(rt.reconstructed.shape(), field.shape());
  // Smooth data, n = 128, spike quantizer: mean relative error well
  // under 1 % (paper reports ~0.0056 % for temperature).
  EXPECT_LT(rt.error.mean_rel_percent(), 1.0);
  EXPECT_LT(rt.compressed.compression_rate_percent(), 60.0);
}

TEST(Compressor, LossyBeatsGzipOnSmoothFloats) {
  // The Fig. 6 claim in miniature: lossy compression achieves a far
  // smaller compression rate than straight deflate on FP mesh data.
  const auto field = make_temperature_field(Shape{96, 48, 4}, 2);
  const WaveletCompressor c(spike_params(128));
  const auto lossy = c.compress(field);

  // Lossless baseline: deflate over the raw array bytes.
  const auto raw = std::as_bytes(field.values());
  const Bytes gz = zlib_compress(raw);
  const double lossless_rate = 100.0 * static_cast<double>(gz.size()) /
                               static_cast<double>(field.size_bytes());
  EXPECT_LT(lossy.compression_rate_percent(), lossless_rate / 2.0)
      << "lossy=" << lossy.compression_rate_percent() << "% lossless=" << lossless_rate << "%";
}

TEST(Compressor, ErrorDecreasesWithDivisions) {
  // Fig. 8 trend.
  const auto field = make_smooth_field(Shape{64, 64}, 3);
  double prev = 1e300;
  for (const int n : {1, 4, 16, 64, 256}) {
    const WaveletCompressor c(simple_params(n));
    const auto rt = c.round_trip(field);
    EXPECT_LE(rt.error.mean_rel, prev * 1.05) << "n=" << n;
    prev = rt.error.mean_rel;
  }
}

TEST(Compressor, SpikeQuantizerLowerErrorThanSimple) {
  // Fig. 8: proposed quantization has lower error at every n.
  const auto field = make_temperature_field(Shape{64, 32, 4}, 4);
  for (const int n : {1, 16, 128}) {
    const auto simple = WaveletCompressor(simple_params(n)).round_trip(field);
    const auto spike = WaveletCompressor(spike_params(n)).round_trip(field);
    EXPECT_LT(spike.error.mean_rel, simple.error.mean_rel) << "n=" << n;
    EXPECT_LT(spike.error.max_rel, simple.error.max_rel) << "n=" << n;
  }
}

TEST(Compressor, SpikeQuantizerCostsModestlyMoreSpace) {
  // Fig. 7: proposed quantization's compression rate is larger (worse)
  // than simple, but in the same regime.
  const auto field = make_temperature_field(Shape{64, 32, 4}, 5);
  const auto simple = WaveletCompressor(simple_params(128)).compress(field);
  const auto spike = WaveletCompressor(spike_params(128)).compress(field);
  EXPECT_GE(spike.data.size(), simple.data.size());
  EXPECT_LT(spike.data.size(), simple.data.size() * 4);
}

TEST(Compressor, AllEntropyModesRoundTrip) {
  const auto field = make_smooth_field(Shape{32, 32}, 6);
  for (const auto mode :
       {EntropyMode::kNone, EntropyMode::kDeflate, EntropyMode::kHuffmanOnly}) {
    const WaveletCompressor c(spike_params(64, mode));
    const auto rt = c.round_trip(field);
    EXPECT_EQ(rt.reconstructed.shape(), field.shape());
    EXPECT_LT(rt.error.mean_rel_percent(), 1.0);
  }
}

TEST(Compressor, EntropyStageShrinksPayload) {
  const auto field = make_smooth_field(Shape{64, 64}, 7);
  const auto none = WaveletCompressor(spike_params(64, EntropyMode::kNone)).compress(field);
  const auto defl = WaveletCompressor(spike_params(64, EntropyMode::kDeflate)).compress(field);
  EXPECT_LT(defl.data.size(), none.data.size());
}

TEST(Compressor, StreamIsSelfDescribing) {
  // Decompression needs no parameters: a differently-configured
  // decompressor call reads any stream.
  const auto field = make_smooth_field(Shape{16, 8, 4}, 8);
  const auto comp = WaveletCompressor(simple_params(16)).compress(field);
  const auto back = WaveletCompressor::decompress(comp.data);
  EXPECT_EQ(back.shape(), field.shape());
}

TEST(Compressor, MultiLevelTransformSupported) {
  const auto field = make_smooth_field(Shape{64, 64}, 9);
  CompressionParams p = spike_params(128);
  p.wavelet_levels = 3;
  const auto rt = WaveletCompressor(p).round_trip(field);
  EXPECT_LT(rt.error.mean_rel_percent(), 2.0);
}

TEST(Compressor, Rank1AndRank4Supported) {
  for (const Shape& shape : {Shape{1000}, Shape{8, 6, 5, 4}}) {
    const auto field = make_smooth_field(shape, 10 + shape.rank());
    const auto rt = WaveletCompressor(spike_params(64)).round_trip(field);
    EXPECT_EQ(rt.reconstructed.shape(), shape);
    EXPECT_LT(rt.error.mean_rel_percent(), 2.0);
  }
}

TEST(Compressor, PaperShapeNicamArray) {
  // The exact array shape the paper compresses: 1156 x 82 x 2 doubles.
  const auto field = make_temperature_field(Shape{1156, 82, 2}, 11);
  const auto rt = WaveletCompressor(spike_params(128)).round_trip(field);
  EXPECT_LT(rt.error.mean_rel_percent(), 0.5);
  EXPECT_LT(rt.compressed.compression_rate_percent(), 70.0);
}

TEST(Compressor, StageTimesCoverPipeline) {
  const auto field = make_smooth_field(Shape{128, 128}, 12);
  const auto comp = WaveletCompressor(spike_params(128)).compress(field);
  EXPECT_GT(comp.times.get("wavelet"), 0.0);
  EXPECT_GT(comp.times.get("quantize"), 0.0);
  EXPECT_GT(comp.times.get("encode"), 0.0);
  EXPECT_GT(comp.times.get("deflate"), 0.0);

  const auto none = WaveletCompressor(spike_params(128, EntropyMode::kNone)).compress(field);
  EXPECT_EQ(none.times.by_stage().count("deflate"), 0u);
}

TEST(Compressor, OneStagePerKeyAndStagesFitInWallTime) {
  // Each stage is timed exactly once, the five stages do not overlap,
  // and no alias key ("gzip", "quantize_encode") is recorded.
  telemetry::set_enabled(true);
  auto& registry = telemetry::MetricsRegistry::global();
  registry.reset();
  const auto field = make_smooth_field(Shape{128, 128}, 12);
  const WaveletCompressor compressor(spike_params(128));
  const auto start = std::chrono::steady_clock::now();
  const auto comp = compressor.compress(field);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  std::vector<std::string> keys;
  for (const auto& [key, seconds] : comp.times.by_stage()) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{"deflate", "encode", "other", "quantize",
                                            "wavelet"}));
  EXPECT_LE(comp.times.total(), wall);

  const auto snapshot = registry.snapshot();
  std::vector<std::string> stage_histograms;
  for (const auto& [name, h] : snapshot.histograms) {
    if (name.rfind("stage.", 0) != 0 || h.count == 0) continue;
    stage_histograms.push_back(name);
    EXPECT_EQ(h.count, 1u) << name;
  }
  EXPECT_EQ(stage_histograms,
            (std::vector<std::string>{"stage.deflate.seconds", "stage.encode.seconds",
                                      "stage.other.seconds", "stage.quantize.seconds",
                                      "stage.wavelet.seconds"}));
}

TEST(Compressor, DecompressTimesItsThreeLayersUnderTheirOwnNames) {
  // decompress() times inflate, decode (parse + fill) and the inverse
  // transform once each, under names compress() does not use.
  telemetry::set_enabled(true);
  auto& registry = telemetry::MetricsRegistry::global();
  const auto field = make_smooth_field(Shape{128, 128}, 12);
  const auto comp = WaveletCompressor(spike_params(128)).compress(field);
  registry.reset();
  (void)WaveletCompressor::decompress(comp.data);
  std::vector<std::string> stage_histograms;
  for (const auto& [name, h] : registry.snapshot().histograms) {
    if (name.rfind("stage.", 0) != 0 || h.count == 0) continue;
    stage_histograms.push_back(name);
    EXPECT_EQ(h.count, 1u) << name;
  }
  EXPECT_EQ(stage_histograms,
            (std::vector<std::string>{"stage.decode.seconds", "stage.inflate.seconds",
                                      "stage.wavelet_inverse.seconds"}));
  telemetry::set_enabled(false);
}

TEST(Compressor, DiagnosticsConsistent) {
  const auto field = make_smooth_field(Shape{32, 32}, 13);
  const auto comp = WaveletCompressor(spike_params(64)).compress(field);
  EXPECT_EQ(comp.original_bytes, field.size_bytes());
  EXPECT_GT(comp.payload_bytes, 0u);
  EXPECT_LE(comp.quantized_count, comp.high_count);
  EXPECT_EQ(comp.high_count + WaveletPlan::create(field.shape(), 1).low_count(), field.size());
}

TEST(Compressor, EmptyAndInvalidInputsRejected) {
  EXPECT_THROW((void)WaveletCompressor(spike_params(0)), InvalidArgumentError);
  CompressionParams p = spike_params(64);
  p.wavelet_levels = 0;
  EXPECT_THROW(WaveletCompressor{p}, InvalidArgumentError);
  NdArray<double> empty;
  EXPECT_THROW((void)WaveletCompressor(spike_params(64)).compress(empty),
               InvalidArgumentError);
}

TEST(Compressor, CorruptedStreamRejected) {
  const auto field = make_smooth_field(Shape{32, 32}, 14);
  auto comp = WaveletCompressor(spike_params(64)).compress(field);
  comp.data[comp.data.size() / 2] ^= std::byte{0x10};
  EXPECT_THROW((void)WaveletCompressor::decompress(comp.data), Error);
  EXPECT_THROW((void)WaveletCompressor::decompress({}), FormatError);
}

TEST(Compressor, RandomDataStillRoundTrips) {
  // White noise: poor compression but correctness must hold.
  const auto field = make_random_field(Shape{40, 40}, 15);
  const auto rt = WaveletCompressor(spike_params(128)).round_trip(field);
  EXPECT_EQ(rt.reconstructed.shape(), field.shape());
  EXPECT_LT(rt.error.max_rel, 1.0);
}

/// Size and CRC-32 of the decoded array for every case of a matrix of
/// shapes (the paper's 1156x82x2 field, odd extents, rank 1 and 4),
/// transform depths, wavelets and entropy modes. The digests were
/// recorded before the decode path was rebuilt around payload views, a
/// single fill walk and the tiled Haar, so any change to a decoded bit
/// shows here.
TEST(DecompressGolden, OutputBitsUnchanged) {
  struct Case {
    const char* name;
    NdArray<double> field;
  };
  std::vector<Case> cases;
  cases.push_back({"fig9", make_temperature_field(Shape{1156, 82, 2}, 2015)});
  cases.push_back({"odd3", make_temperature_field(Shape{37, 5, 3}, 7)});
  cases.push_back({"rank1", make_smooth_field(Shape{1001}, 8, 0.3)});
  cases.push_back({"rank4", make_smooth_field(Shape{7, 5, 6, 3}, 9, 0.3)});
  const std::pair<WaveletKind, const char*> wavelets[] = {
      {WaveletKind::kHaar, "haar"}, {WaveletKind::kCdf53, "cdf53"}, {WaveletKind::kCdf97, "cdf97"}};
  const std::pair<EntropyMode, const char*> entropies[] = {{EntropyMode::kNone, "none"},
                                                           {EntropyMode::kHuffmanOnly, "huffman"},
                                                           {EntropyMode::kDeflate, "deflate"}};
  // "<case> <levels> <wavelet> <entropy> <elements> <crc32>".
  const std::vector<std::string> expected = {
      "fig9 1 haar none 189584 f3ca55d5",
      "fig9 1 haar huffman 189584 f3ca55d5",
      "fig9 1 haar deflate 189584 f3ca55d5",
      "fig9 1 cdf53 none 189584 e8f0612c",
      "fig9 1 cdf53 huffman 189584 e8f0612c",
      "fig9 1 cdf53 deflate 189584 e8f0612c",
      "fig9 1 cdf97 none 189584 5207ad1b",
      "fig9 1 cdf97 huffman 189584 5207ad1b",
      "fig9 1 cdf97 deflate 189584 5207ad1b",
      "fig9 2 haar none 189584 0b57c7ff",
      "fig9 2 haar huffman 189584 0b57c7ff",
      "fig9 2 haar deflate 189584 0b57c7ff",
      "fig9 2 cdf53 none 189584 27b84631",
      "fig9 2 cdf53 huffman 189584 27b84631",
      "fig9 2 cdf53 deflate 189584 27b84631",
      "fig9 2 cdf97 none 189584 f8863631",
      "fig9 2 cdf97 huffman 189584 f8863631",
      "fig9 2 cdf97 deflate 189584 f8863631",
      "fig9 3 haar none 189584 3ccb482e",
      "fig9 3 haar huffman 189584 3ccb482e",
      "fig9 3 haar deflate 189584 3ccb482e",
      "fig9 3 cdf53 none 189584 596c1149",
      "fig9 3 cdf53 huffman 189584 596c1149",
      "fig9 3 cdf53 deflate 189584 596c1149",
      "fig9 3 cdf97 none 189584 e5a38883",
      "fig9 3 cdf97 huffman 189584 e5a38883",
      "fig9 3 cdf97 deflate 189584 e5a38883",
      "odd3 1 haar none 555 08a13b60",
      "odd3 1 haar huffman 555 08a13b60",
      "odd3 1 haar deflate 555 08a13b60",
      "odd3 1 cdf53 none 555 91c827f7",
      "odd3 1 cdf53 huffman 555 91c827f7",
      "odd3 1 cdf53 deflate 555 91c827f7",
      "odd3 1 cdf97 none 555 34b299bc",
      "odd3 1 cdf97 huffman 555 34b299bc",
      "odd3 1 cdf97 deflate 555 34b299bc",
      "odd3 2 haar none 555 3c292ce6",
      "odd3 2 haar huffman 555 3c292ce6",
      "odd3 2 haar deflate 555 3c292ce6",
      "odd3 2 cdf53 none 555 bb53f944",
      "odd3 2 cdf53 huffman 555 bb53f944",
      "odd3 2 cdf53 deflate 555 bb53f944",
      "odd3 2 cdf97 none 555 9587f825",
      "odd3 2 cdf97 huffman 555 9587f825",
      "odd3 2 cdf97 deflate 555 9587f825",
      "odd3 3 haar none 555 4c2caa0d",
      "odd3 3 haar huffman 555 4c2caa0d",
      "odd3 3 haar deflate 555 4c2caa0d",
      "odd3 3 cdf53 none 555 3f2c54c2",
      "odd3 3 cdf53 huffman 555 3f2c54c2",
      "odd3 3 cdf53 deflate 555 3f2c54c2",
      "odd3 3 cdf97 none 555 539412af",
      "odd3 3 cdf97 huffman 555 539412af",
      "odd3 3 cdf97 deflate 555 539412af",
      "rank1 1 haar none 1001 f46e3897",
      "rank1 1 haar huffman 1001 f46e3897",
      "rank1 1 haar deflate 1001 f46e3897",
      "rank1 1 cdf53 none 1001 e9d5ca23",
      "rank1 1 cdf53 huffman 1001 e9d5ca23",
      "rank1 1 cdf53 deflate 1001 e9d5ca23",
      "rank1 1 cdf97 none 1001 4e98d2c6",
      "rank1 1 cdf97 huffman 1001 4e98d2c6",
      "rank1 1 cdf97 deflate 1001 4e98d2c6",
      "rank1 2 haar none 1001 99ac018b",
      "rank1 2 haar huffman 1001 99ac018b",
      "rank1 2 haar deflate 1001 99ac018b",
      "rank1 2 cdf53 none 1001 a1c5f2eb",
      "rank1 2 cdf53 huffman 1001 a1c5f2eb",
      "rank1 2 cdf53 deflate 1001 a1c5f2eb",
      "rank1 2 cdf97 none 1001 0276de75",
      "rank1 2 cdf97 huffman 1001 0276de75",
      "rank1 2 cdf97 deflate 1001 0276de75",
      "rank1 3 haar none 1001 ecc97c8c",
      "rank1 3 haar huffman 1001 ecc97c8c",
      "rank1 3 haar deflate 1001 ecc97c8c",
      "rank1 3 cdf53 none 1001 aa0787f4",
      "rank1 3 cdf53 huffman 1001 aa0787f4",
      "rank1 3 cdf53 deflate 1001 aa0787f4",
      "rank1 3 cdf97 none 1001 940806f2",
      "rank1 3 cdf97 huffman 1001 940806f2",
      "rank1 3 cdf97 deflate 1001 940806f2",
      "rank4 1 haar none 630 17da649c",
      "rank4 1 haar huffman 630 17da649c",
      "rank4 1 haar deflate 630 17da649c",
      "rank4 1 cdf53 none 630 5627bbc9",
      "rank4 1 cdf53 huffman 630 5627bbc9",
      "rank4 1 cdf53 deflate 630 5627bbc9",
      "rank4 1 cdf97 none 630 335a1c35",
      "rank4 1 cdf97 huffman 630 335a1c35",
      "rank4 1 cdf97 deflate 630 335a1c35",
      "rank4 2 haar none 630 fb9fe0c5",
      "rank4 2 haar huffman 630 fb9fe0c5",
      "rank4 2 haar deflate 630 fb9fe0c5",
      "rank4 2 cdf53 none 630 501fb92f",
      "rank4 2 cdf53 huffman 630 501fb92f",
      "rank4 2 cdf53 deflate 630 501fb92f",
      "rank4 2 cdf97 none 630 03998535",
      "rank4 2 cdf97 huffman 630 03998535",
      "rank4 2 cdf97 deflate 630 03998535",
      "rank4 3 haar none 630 c8deb6ff",
      "rank4 3 haar huffman 630 c8deb6ff",
      "rank4 3 haar deflate 630 c8deb6ff",
      "rank4 3 cdf53 none 630 58b1a7b1",
      "rank4 3 cdf53 huffman 630 58b1a7b1",
      "rank4 3 cdf53 deflate 630 58b1a7b1",
      "rank4 3 cdf97 none 630 91d10dc0",
      "rank4 3 cdf97 huffman 630 91d10dc0",
      "rank4 3 cdf97 deflate 630 91d10dc0",
  };
  std::vector<std::string> got;
  for (const Case& c : cases) {
    for (int levels = 1; levels <= 3; ++levels) {
      for (const auto& [wavelet, wname] : wavelets) {
        for (const auto& [entropy, ename] : entropies) {
          CompressionParams p = spike_params(128, entropy);
          p.wavelet_levels = levels;
          p.wavelet = wavelet;
          const auto decoded =
              WaveletCompressor::decompress(WaveletCompressor(p).compress(c.field).data);
          char line[128];
          std::snprintf(line, sizeof line, "%s %d %s %s %zu %08x", c.name, levels, wname, ename,
                        decoded.size(), crc32(decoded.data(), decoded.size_bytes()));
          got.emplace_back(line);
        }
      }
    }
  }
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], expected[i]);
}

/// decode_bands writes the array in memory order; it must still place
/// every value where for_each_low_band / for_each_high_band (the order
/// the stream was written in) visit it. Each exact value and low-band
/// value carries its serialization ordinal; quantized ones carry an
/// averages entry, checked against the bitmap-order reference.
TEST(DecodeBands, FillWalkMatchesSerializationOrder) {
  const std::vector<Shape> shapes = {Shape{13},          Shape{7, 5},   Shape{5, 3, 7},
                                     Shape{3, 5, 3, 5}, Shape{9, 1, 4}, Shape{1, 7},
                                     Shape{11, 2}};
  for (const Shape& shape : shapes) {
    for (int levels = 1; levels <= 3; ++levels) {
      for (const bool mixed : {false, true}) {
        const WaveletPlan plan = WaveletPlan::create(shape, levels);
        LossyPayload p;
        p.shape = shape;
        p.levels = levels;
        for (int j = 0; j < 200; ++j) p.averages.push_back(-1.0 - j);
        for (std::size_t i = 0; i < plan.low_count(); ++i) {
          p.low_band.push_back(static_cast<double>(i));
        }
        p.quantized = Bitmap(plan.high_count());
        std::vector<double> want_high;
        for (std::size_t k = 0; k < plan.high_count(); ++k) {
          const bool q = mixed && (((k / 5) % 2 == 0) != (k % 7 == 0));
          p.quantized.set(k, q);
          if (q) {
            p.indices.push_back(static_cast<std::uint8_t>(k % 200));
            want_high.push_back(p.averages[k % 200]);
          } else {
            p.exact_values.push_back(static_cast<double>(plan.low_count() + k));
            want_high.push_back(p.exact_values.back());
          }
        }
        const Bytes bytes = encode_payload(p);
        NdArray<double> a = decode_bands(parse_payload(bytes));
        ASSERT_EQ(a.shape(), shape);

        const std::string where = shape.to_string() + " levels " + std::to_string(levels) +
                                  (mixed ? " mixed" : " exact");
        std::size_t li = 0;
        for_each_low_band(a.view(), plan.final_low_extents(), [&](double& v) {
          EXPECT_EQ(v, static_cast<double>(li)) << where << " low ordinal " << li;
          ++li;
        });
        std::size_t hi = 0;
        for_each_high_band(a.view(), plan.final_low_extents(), [&](double& v) {
          ASSERT_LT(hi, want_high.size()) << where;
          EXPECT_EQ(v, want_high[hi]) << where << " high ordinal " << hi;
          ++hi;
        });
        EXPECT_EQ(li, plan.low_count()) << where;
        EXPECT_EQ(hi, plan.high_count()) << where;
      }
    }
  }
}

TEST(ErrorBound, PicksSmallestSufficientN) {
  const auto field = make_temperature_field(Shape{64, 32, 4}, 16);
  const auto tight = compress_with_error_bound(field, 1e-4);
  EXPECT_TRUE(tight.met_bound);
  EXPECT_LE(tight.error.mean_rel, 1e-4);

  const auto loose = compress_with_error_bound(field, 1e-2);
  EXPECT_TRUE(loose.met_bound);
  EXPECT_LE(loose.chosen_divisions, tight.chosen_divisions);
}

TEST(ErrorBound, UnreachableBoundReportsBestEffort) {
  const auto field = make_random_field(Shape{64, 64}, 20);  // noise: hard
  const auto r = compress_with_error_bound(field, 1e-12);
  EXPECT_FALSE(r.met_bound);
  EXPECT_GT(r.chosen_divisions, 0);
  EXPECT_GT(r.error.mean_rel, 1e-12);
  // The stream is still valid and decompressible.
  EXPECT_EQ(WaveletCompressor::decompress(r.compressed.data).shape(), field.shape());
}

TEST(ErrorBound, InvalidBoundRejected) {
  const auto field = make_smooth_field(Shape{8, 8}, 17);
  EXPECT_THROW((void)compress_with_error_bound(field, 0.0), InvalidArgumentError);
  EXPECT_THROW((void)compress_with_error_bound(field, -1.0), InvalidArgumentError);
}

TEST(Synthetic, SmoothFieldIsSmooth) {
  const auto field = make_smooth_field(Shape{256}, 18);
  double total_step = 0.0;
  double range_lo = field[0];
  double range_hi = field[0];
  for (std::size_t i = 1; i < field.size(); ++i) {
    total_step += std::abs(field[i] - field[i - 1]);
    range_lo = std::min(range_lo, field[i]);
    range_hi = std::max(range_hi, field[i]);
  }
  const double mean_step = total_step / static_cast<double>(field.size() - 1);
  EXPECT_LT(mean_step, (range_hi - range_lo) / 10.0);
}

TEST(Synthetic, DeterministicForSeed) {
  const auto a = make_smooth_field(Shape{32, 32}, 42);
  const auto b = make_smooth_field(Shape{32, 32}, 42);
  EXPECT_EQ(a, b);
  const auto c = make_smooth_field(Shape{32, 32}, 43);
  EXPECT_FALSE(a == c);
}

TEST(Synthetic, TemperatureHasLapseRateTrend) {
  const auto t = make_temperature_field(Shape{8, 8, 16}, 19);
  // Mean over the first vertical level must exceed the last.
  double first = 0.0;
  double last = 0.0;
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      first += t(i, j, 0);
      last += t(i, j, 15);
    }
  }
  EXPECT_GT(first, last);
}

}  // namespace
}  // namespace wck
