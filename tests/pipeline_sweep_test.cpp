// Property sweep across the pipeline's full configuration space:
// every (wavelet kind x quantizer x entropy mode x transform depth x
// division number) combination must round-trip with bounded error,
// self-describe, and respect its structural invariants.
#include <gtest/gtest.h>

#include <tuple>

#include "core/compressor.hpp"
#include "core/synthetic.hpp"
#include "util/rng.hpp"
#include "wavelet/haar.hpp"

namespace wck {
namespace {

using SweepParam = std::tuple<WaveletKind, QuantizerKind, EntropyMode, int /*levels*/,
                              int /*divisions*/>;

class PipelineSweep : public ::testing::TestWithParam<SweepParam> {
 protected:
  [[nodiscard]] CompressionParams params() const {
    const auto& [wavelet, quantizer, entropy, levels, divisions] = GetParam();
    CompressionParams p;
    p.wavelet = wavelet;
    p.quantizer.kind = quantizer;
    p.quantizer.divisions = divisions;
    p.quantizer.spike_partitions = 64;
    p.wavelet_levels = levels;
    p.entropy = entropy;
    return p;
  }
};

TEST_P(PipelineSweep, RoundTripBoundedErrorOnSmoothData) {
  const auto field = make_temperature_field(Shape{48, 30, 3}, 11);
  const WaveletCompressor c(params());
  const auto rt = c.round_trip(field);
  EXPECT_EQ(rt.reconstructed.shape(), field.shape());
  // Error bound scaled to the configuration: n=1 collapses every
  // quantized coefficient to one value (tens of percent on deep
  // transforms); n=128 keeps the error well under a percent.
  const double bound = std::get<4>(GetParam()) == 1 ? 40.0 : 1.0;
  EXPECT_LT(rt.error.mean_rel_percent(), bound);
  EXPECT_GT(rt.compressed.data.size(), 0u);
  EXPECT_LE(rt.compressed.quantized_count, rt.compressed.high_count);
}

TEST_P(PipelineSweep, StreamSelfDescribes) {
  const auto field = make_smooth_field(Shape{33, 17}, 12);
  const auto comp = WaveletCompressor(params()).compress(field);
  // Static decompress — no parameters from the encoding side.
  const auto back = WaveletCompressor::decompress(comp.data);
  EXPECT_EQ(back.shape(), field.shape());
}

TEST_P(PipelineSweep, DeterministicStreams) {
  const auto field = make_smooth_field(Shape{20, 20, 2}, 13);
  const WaveletCompressor c(params());
  // Temp-file gzip writes through the filesystem; output bytes must
  // still be identical across runs.
  const auto a = c.compress(field);
  const auto b = c.compress(field);
  EXPECT_EQ(a.data, b.data);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigurations, PipelineSweep,
    ::testing::Combine(
        ::testing::Values(WaveletKind::kHaar, WaveletKind::kCdf53, WaveletKind::kCdf97),
        ::testing::Values(QuantizerKind::kSimple, QuantizerKind::kSpike),
        ::testing::Values(EntropyMode::kNone, EntropyMode::kDeflate,
                          EntropyMode::kHuffmanOnly),
        ::testing::Values(1, 2),
        ::testing::Values(1, 128)));

// Shape edge-case sweep: every rank, odd extents, degenerate axes.
class ShapeSweep : public ::testing::TestWithParam<Shape> {};

TEST_P(ShapeSweep, RoundTripsAtDefaultParams) {
  const Shape& shape = GetParam();
  const auto field = make_smooth_field(shape, 15 + shape.size());
  CompressionParams p;
  p.quantizer.divisions = 64;
  const auto rt = WaveletCompressor(p).round_trip(field);
  EXPECT_EQ(rt.reconstructed.shape(), shape);
  EXPECT_LT(rt.error.mean_rel_percent(), 10.0) << shape.to_string();
}

INSTANTIATE_TEST_SUITE_P(Shapes, ShapeSweep,
                         ::testing::Values(Shape{1}, Shape{2}, Shape{7}, Shape{4096},
                                           Shape{1, 1}, Shape{1, 100}, Shape{100, 1},
                                           Shape{31, 33}, Shape{5, 5, 5}, Shape{2, 3, 4, 5},
                                           Shape{1156, 82, 2}));

// Seeds sweep: the invariants must hold across many random fields, not
// one lucky instance.
class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, ErrorAlwaysWithinQuantizerCellBound) {
  // For the simple quantizer every high-band coefficient moves at most
  // one partition width; after the inverse transform the per-value
  // error is bounded by levels * rank * width (loose union bound).
  const std::uint64_t seed = GetParam();
  const auto field = make_smooth_field(Shape{32, 32}, seed, /*roughness=*/0.05);
  CompressionParams p;
  p.quantizer.kind = QuantizerKind::kSimple;
  p.quantizer.divisions = 64;
  const auto rt = WaveletCompressor(p).round_trip(field);
  EXPECT_LT(rt.error.max_rel, 0.5) << "seed=" << seed;
  EXPECT_GT(rt.error.mean_rel, 0.0) << "seed=" << seed;  // genuinely lossy
}

INSTANTIATE_TEST_SUITE_P(ManySeeds, SeedSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u, 55u, 89u));

}  // namespace
}  // namespace wck
