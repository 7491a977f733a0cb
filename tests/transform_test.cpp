// Tests for the transform names the perfbench driver calls
// (wavelet/transform.hpp): they are Haar, and the wavelet is a constant
// of CompressionParams and of the stream, not an option.
#include <gtest/gtest.h>

#include <type_traits>

#include "core/compressor.hpp"
#include "core/synthetic.hpp"
#include "util/rng.hpp"
#include "wavelet/transform.hpp"

namespace wck {
namespace {

NdArray<double> random_array(const Shape& shape, std::uint64_t seed) {
  NdArray<double> a(shape);
  Xoshiro256 rng(seed);
  for (auto& v : a.values()) v = rng.uniform(-10.0, 10.0);
  return a;
}

TEST(Transforms, HaarDispatchMatchesDirectCalls) {
  NdArray<double> a = random_array(Shape{32, 16}, 1);
  NdArray<double> b = a;
  wavelet_forward(a.view(), WaveletKind::kHaar, 2);
  haar_forward(b.view(), 2);
  EXPECT_EQ(a, b);
  wavelet_inverse(a.view(), WaveletKind::kHaar, 2);
  haar_inverse(b.view(), 2);
  EXPECT_EQ(a, b);
}

TEST(Transforms, WaveletIsAConstantOfTheParams) {
  // Readable through an instance, as the perfbench driver reads it, but
  // not assignable: no caller can select another transform.
  const CompressionParams p;
  EXPECT_EQ(p.wavelet, WaveletKind::kHaar);
  static_assert(CompressionParams::wavelet == WaveletKind::kHaar);
  static_assert(!std::is_assignable_v<decltype((CompressionParams{}.wavelet)), WaveletKind>);
}

// The kind axis has one value, Haar; it stays in the tuple so each cell
// keeps its test name.
class TransformRoundTrip
    : public ::testing::TestWithParam<std::tuple<WaveletKind, Shape, int>> {};

TEST_P(TransformRoundTrip, ForwardInverseIsNearIdentity) {
  const auto& [kind, shape, levels] = GetParam();
  const NdArray<double> orig = random_array(shape, 3 + shape.size());
  NdArray<double> a = orig;
  wavelet_forward(a.view(), kind, levels);
  wavelet_inverse(a.view(), kind, levels);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], orig[i], 1e-8) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsShapesLevels, TransformRoundTrip,
    ::testing::Combine(::testing::Values(WaveletKind::kHaar),
                       ::testing::Values(Shape{64}, Shape{63}, Shape{2}, Shape{3}, Shape{16, 16},
                                         Shape{15, 17}, Shape{8, 6, 4}, Shape{1156, 82, 2}),
                       ::testing::Values(1, 2)));

TEST(Transforms, PipelineRoundTripsWithEveryKind) {
  const auto field = make_temperature_field(Shape{64, 32, 4}, 6);
  CompressionParams p;
  p.quantizer.divisions = 128;
  const auto rt = WaveletCompressor(p).round_trip(field);
  EXPECT_EQ(rt.reconstructed.shape(), field.shape());
  EXPECT_LT(rt.error.mean_rel_percent(), 0.5);
}

TEST(Transforms, StreamRecordsWaveletKind) {
  // The payload keeps its wavelet byte, and the encoder writes Haar (0)
  // there at every depth and quantizer.
  const auto field = make_smooth_field(Shape{32, 32}, 7);
  for (int levels = 1; levels <= 3; ++levels) {
    for (const auto kind : {QuantizerKind::kSimple, QuantizerKind::kSpike}) {
      CompressionParams p;
      p.entropy = EntropyMode::kNone;
      p.wavelet_levels = levels;
      p.quantizer.kind = kind;
      const auto comp = WaveletCompressor(p).compress(field);
      // Tag, then the payload: magic (4), version, quantizer, wavelet.
      EXPECT_EQ(static_cast<int>(comp.data.at(1 + 4 + 1 + 1)),
                static_cast<int>(WaveletKind::kHaar));
    }
  }
}

TEST(Transforms, InvalidLevelsRejected) {
  NdArray<double> a(Shape{8});
  EXPECT_THROW(wavelet_forward(a.view(), WaveletKind::kHaar, 0), InvalidArgumentError);
  EXPECT_THROW(wavelet_inverse(a.view(), WaveletKind::kHaar, 0), InvalidArgumentError);
}

}  // namespace
}  // namespace wck
