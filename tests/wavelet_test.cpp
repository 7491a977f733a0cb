// Unit and property tests for the Haar wavelet transformation
// (paper Sec. III-A, Eq. 2-3, Fig. 2-3).
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <numeric>
#include <span>
#include <vector>

#include "ndarray/ndarray.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "wavelet/haar.hpp"

namespace wck {
namespace {

NdArray<double> random_array(const Shape& shape, std::uint64_t seed) {
  NdArray<double> a(shape);
  Xoshiro256 rng(seed);
  for (auto& v : a.values()) v = rng.uniform(-100.0, 100.0);
  return a;
}

/// Dyadic values (small integers / 2^k) make the Haar averages exactly
/// representable, so forward+inverse is bit-exact.
NdArray<double> dyadic_array(const Shape& shape, std::uint64_t seed) {
  NdArray<double> a(shape);
  Xoshiro256 rng(seed);
  for (auto& v : a.values()) v = static_cast<double>(rng.bounded(4096)) / 16.0;
  return a;
}

TEST(Haar1D, PaperEquations) {
  // Eq. 2 / Eq. 3 on a concrete pair sequence.
  NdArray<double> a(Shape{6}, std::vector<double>{2.0, 4.0, 10.0, 6.0, 1.0, 3.0});
  haar_forward(a.view(), 1);
  // L = [(2+4)/2, (10+6)/2, (1+3)/2], H = [(2-4)/2, (10-6)/2, (1-3)/2]
  EXPECT_DOUBLE_EQ(a(0), 3.0);
  EXPECT_DOUBLE_EQ(a(1), 8.0);
  EXPECT_DOUBLE_EQ(a(2), 2.0);
  EXPECT_DOUBLE_EQ(a(3), -1.0);
  EXPECT_DOUBLE_EQ(a(4), 2.0);
  EXPECT_DOUBLE_EQ(a(5), -1.0);
}

TEST(Haar1D, InverseRecoversExactlyOnDyadicData) {
  const NdArray<double> orig = dyadic_array(Shape{1024}, 1);
  NdArray<double> a = orig;
  haar_forward(a.view(), 1);
  haar_inverse(a.view(), 1);
  EXPECT_EQ(a, orig);
}

TEST(Haar1D, OddLengthKeepsUnpairedElement) {
  NdArray<double> a(Shape{5}, std::vector<double>{1.0, 3.0, 5.0, 7.0, 9.0});
  haar_forward(a.view(), 1);
  // L = [2, 6, 9] (last element unpaired), H = [-1, -1]
  EXPECT_DOUBLE_EQ(a(0), 2.0);
  EXPECT_DOUBLE_EQ(a(1), 6.0);
  EXPECT_DOUBLE_EQ(a(2), 9.0);
  EXPECT_DOUBLE_EQ(a(3), -1.0);
  EXPECT_DOUBLE_EQ(a(4), -1.0);
  haar_inverse(a.view(), 1);
  EXPECT_DOUBLE_EQ(a(0), 1.0);
  EXPECT_DOUBLE_EQ(a(4), 9.0);
}

TEST(Haar1D, Length1IsIdentity) {
  NdArray<double> a(Shape{1}, std::vector<double>{42.0});
  haar_forward(a.view(), 1);
  EXPECT_DOUBLE_EQ(a(0), 42.0);
  haar_inverse(a.view(), 1);
  EXPECT_DOUBLE_EQ(a(0), 42.0);
}

TEST(Haar2D, QuadrantStructure) {
  // A constant array transforms to: LL = constant, all high bands = 0.
  NdArray<double> a(Shape{4, 4}, 5.0);
  haar_forward(a.view(), 1);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      if (i < 2 && j < 2) {
        EXPECT_DOUBLE_EQ(a(i, j), 5.0);
      } else {
        EXPECT_DOUBLE_EQ(a(i, j), 0.0);
      }
    }
  }
}

TEST(Haar2D, SmoothDataConcentratesEnergyInLowBand) {
  // The property the paper's compression relies on: for smooth data the
  // high bands are near zero.
  NdArray<double> a(Shape{64, 64});
  for (std::size_t i = 0; i < 64; ++i) {
    for (std::size_t j = 0; j < 64; ++j) {
      a(i, j) = std::sin(0.05 * static_cast<double>(i)) +
                std::cos(0.04 * static_cast<double>(j));
    }
  }
  haar_forward(a.view(), 1);
  const WaveletPlan plan = WaveletPlan::create(a.shape(), 1);
  double low_energy = 0.0;
  double high_energy = 0.0;
  for_each_low_band(a.view(), plan.final_low_extents(),
                    [&](double& v) { low_energy += v * v; });
  for_each_high_band(a.view(), plan.final_low_extents(),
                     [&](double& v) { high_energy += v * v; });
  EXPECT_GT(low_energy, 1000.0 * high_energy);
}

class HaarRoundTrip
    : public ::testing::TestWithParam<std::tuple<Shape, int>> {};

TEST_P(HaarRoundTrip, ForwardInverseIsNearIdentity) {
  const auto& [shape, levels] = GetParam();
  const NdArray<double> orig = random_array(shape, 7 + shape.size());
  NdArray<double> a = orig;
  haar_forward(a.view(), levels);
  haar_inverse(a.view(), levels);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], orig[i], 1e-9 * std::abs(orig[i]) + 1e-12) << "i=" << i;
  }
}

TEST_P(HaarRoundTrip, ExactOnDyadicData) {
  const auto& [shape, levels] = GetParam();
  const NdArray<double> orig = dyadic_array(shape, 11 + shape.size());
  NdArray<double> a = orig;
  haar_forward(a.view(), levels);
  haar_inverse(a.view(), levels);
  EXPECT_EQ(a, orig);
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndLevels, HaarRoundTrip,
    ::testing::Values(
        std::make_tuple(Shape{64}, 1), std::make_tuple(Shape{64}, 3),
        std::make_tuple(Shape{63}, 1), std::make_tuple(Shape{63}, 2),
        std::make_tuple(Shape{1}, 1), std::make_tuple(Shape{2}, 4),
        std::make_tuple(Shape{16, 16}, 1), std::make_tuple(Shape{16, 16}, 2),
        std::make_tuple(Shape{15, 17}, 2), std::make_tuple(Shape{1, 9}, 1),
        std::make_tuple(Shape{8, 8, 8}, 1), std::make_tuple(Shape{8, 8, 8}, 2),
        std::make_tuple(Shape{7, 9, 5}, 3),
        // The paper's NICAM array shape.
        std::make_tuple(Shape{1156, 82, 2}, 1),
        std::make_tuple(Shape{3, 4, 5, 6}, 2)));

/// Eq. 2-3 applied line by line: the definition the tiled haar_forward
/// and haar_inverse must match bit for bit. Along `axis` of `block`,
/// every line becomes [L | H] with L[i] = (a[2i] + a[2i+1]) / 2 and
/// H[i] = (a[2i] - a[2i+1]) / 2, an odd line keeping its last element as
/// the last L; the inverse is a[2i] = L[i] + H[i], a[2i+1] = L[i] - H[i].
void reference_pass(NdSpan<double> block, std::size_t axis, bool inverse) {
  const std::size_t r = block.rank();
  const std::size_t n = block.extent(axis);
  const std::size_t pairs = n / 2;
  const std::size_t step = block.stride(axis);
  std::array<std::size_t, kMaxRank> offs{};
  std::array<std::size_t, kMaxRank> exts{};
  for (std::size_t a = 0; a < r; ++a) exts[a] = a == axis ? 1 : block.extent(a);
  std::vector<double> out(n);
  const auto starts = block.subblock(std::span(offs.data(), r), std::span(exts.data(), r));
  starts.visit_row_major([&](double& first) {
    double* x = &first;
    for (std::size_t i = 0; i < pairs; ++i) {
      if (inverse) {
        out[2 * i] = x[i * step] + x[(n - pairs + i) * step];
        out[2 * i + 1] = x[i * step] - x[(n - pairs + i) * step];
      } else {
        out[i] = (x[2 * i * step] + x[(2 * i + 1) * step]) / 2.0;
        out[n - pairs + i] = (x[2 * i * step] - x[(2 * i + 1) * step]) / 2.0;
      }
    }
    if (n % 2 != 0) {
      if (inverse) {
        out[n - 1] = x[pairs * step];
      } else {
        out[pairs] = x[(n - 1) * step];
      }
    }
    for (std::size_t i = 0; i < n; ++i) x[i * step] = out[i];
  });
}

/// The multi-level transform from reference_pass: forward runs axes
/// 0..rank-1 on each level's low block, the inverse unwinds both orders.
void reference_haar(NdArray<double>& a, int levels, bool inverse) {
  const WaveletPlan plan = WaveletPlan::create(a.shape(), levels);
  const std::size_t r = a.rank();
  std::vector<NdSpan<double>> blocks = {a.view()};
  std::array<std::size_t, kMaxRank> offs{};
  std::array<std::size_t, kMaxRank> exts{};
  for (int l = 0; l + 1 < levels; ++l) {
    for (std::size_t ax = 0; ax < r; ++ax) exts[ax] = plan.low_extents(l)[ax];
    blocks.push_back(a.view().subblock(std::span(offs.data(), r), std::span(exts.data(), r)));
  }
  if (inverse) {
    for (std::size_t l = blocks.size(); l-- > 0;) {
      for (std::size_t ax = r; ax-- > 0;) reference_pass(blocks[l], ax, true);
    }
  } else {
    for (const NdSpan<double>& block : blocks) {
      for (std::size_t ax = 0; ax < r; ++ax) reference_pass(block, ax, false);
    }
  }
}

class HaarReference : public ::testing::TestWithParam<std::tuple<Shape, int>> {};

TEST_P(HaarReference, ForwardMatchesPerLineEquations) {
  const auto& [shape, levels] = GetParam();
  NdArray<double> tiled = random_array(shape, 41 + shape.size());
  NdArray<double> ref = tiled;
  haar_forward(tiled.view(), levels);
  reference_haar(ref, levels, false);
  EXPECT_EQ(tiled, ref);
}

TEST_P(HaarReference, InverseMatchesPerLineEquations) {
  const auto& [shape, levels] = GetParam();
  NdArray<double> tiled = random_array(shape, 43 + shape.size());
  NdArray<double> ref = tiled;
  haar_inverse(tiled.view(), levels);
  reference_haar(ref, levels, true);
  EXPECT_EQ(tiled, ref);
}

// Rank 1-4, odd and even extents, extent-1 and extent-2 axes (the
// back-to-back pair loop), and tiles wide enough to split into strips
// (300x300, the paper's 1156x82x2).
INSTANTIATE_TEST_SUITE_P(
    ShapesAndLevels, HaarReference,
    ::testing::Combine(::testing::Values(Shape{1}, Shape{2}, Shape{7}, Shape{64}, Shape{1001},
                                         Shape{1, 9}, Shape{9, 1}, Shape{2, 2}, Shape{15, 17},
                                         Shape{300, 300}, Shape{1156, 82, 2}, Shape{37, 5, 3},
                                         Shape{8, 1, 8}, Shape{2, 2, 2}, Shape{3, 4, 5, 6},
                                         Shape{7, 5, 6, 3}, Shape{2, 1, 2, 1},
                                         Shape{5, 2, 1, 2}),
                       ::testing::Values(1, 2, 3)));

TEST(WaveletPlan, LowExtentsHalveCeiling) {
  const WaveletPlan p = WaveletPlan::create(Shape{9, 8}, 2);
  EXPECT_EQ(p.low_extents(0), Shape({5, 4}));
  EXPECT_EQ(p.low_extents(1), Shape({3, 2}));
  EXPECT_EQ(p.low_count(), 6u);
  EXPECT_EQ(p.high_count(), 72u - 6u);
}

TEST(WaveletPlan, SaturatesAtExtentOne) {
  const WaveletPlan p = WaveletPlan::create(Shape{2, 3}, 5);
  EXPECT_EQ(p.final_low_extents(), Shape({1, 1}));
}

TEST(WaveletPlan, InvalidLevelsRejected) {
  EXPECT_THROW((void)WaveletPlan::create(Shape{4}, 0), InvalidArgumentError);
  NdArray<double> a(Shape{4});
  EXPECT_THROW(haar_forward(a.view(), 0), InvalidArgumentError);
  EXPECT_THROW(haar_inverse(a.view(), -1), InvalidArgumentError);
}

TEST(BandIteration, HighPlusLowCoversArrayOnce) {
  for (const Shape& shape : {Shape{10}, Shape{5, 6}, Shape{4, 5, 6}}) {
    for (int levels = 1; levels <= 2; ++levels) {
      const WaveletPlan plan = WaveletPlan::create(shape, levels);
      NdArray<int> marks(shape, 0);
      // Mark low and high elements through int views.
      NdSpan<int> v = marks.view();
      std::size_t low_seen = 0;
      std::size_t high_seen = 0;
      for_each_low_band(v, plan.final_low_extents(), [&](int& m) {
        ++m;
        ++low_seen;
      });
      for_each_high_band(v, plan.final_low_extents(), [&](int& m) {
        ++m;
        ++high_seen;
      });
      EXPECT_EQ(low_seen, plan.low_count());
      EXPECT_EQ(high_seen, plan.high_count());
      for (const int m : marks.values()) EXPECT_EQ(m, 1);
    }
  }
}

TEST(BandIteration, HighBandOrderIsRowMajor) {
  // 1D, n=4, low corner = 2: high elements are positions 2, 3.
  NdArray<double> a(Shape{4}, std::vector<double>{0.0, 1.0, 2.0, 3.0});
  const WaveletPlan plan = WaveletPlan::create(a.shape(), 1);
  std::vector<double> seen;
  for_each_high_band(a.view(), plan.final_low_extents(),
                     [&](double& v) { seen.push_back(v); });
  EXPECT_EQ(seen, (std::vector<double>{2.0, 3.0}));
}

TEST(Haar, EnergyPreservationOfAveragesAndDifferences) {
  // Parseval-like invariant of the paper's (unnormalized) Haar variant:
  // for each pair, a^2 + b^2 = 2 * (L^2 + H^2).
  const NdArray<double> orig = random_array(Shape{512}, 23);
  NdArray<double> a = orig;
  haar_forward(a.view(), 1);
  for (std::size_t i = 0; i < 256; ++i) {
    const double lhs = orig[2 * i] * orig[2 * i] + orig[2 * i + 1] * orig[2 * i + 1];
    const double rhs = 2.0 * (a[i] * a[i] + a[256 + i] * a[256 + i]);
    EXPECT_NEAR(lhs, rhs, 1e-9 * std::abs(lhs));
  }
}

TEST(Haar, MultiLevelMatchesRepeatedSingleLevel) {
  const NdArray<double> orig = random_array(Shape{16, 16}, 31);
  NdArray<double> multi = orig;
  haar_forward(multi.view(), 2);

  NdArray<double> twice = orig;
  haar_forward(twice.view(), 1);
  const std::size_t offs[] = {0, 0};
  const std::size_t exts[] = {8, 8};
  haar_forward(twice.view().subblock(offs, exts), 1);

  for (std::size_t i = 0; i < multi.size(); ++i) {
    EXPECT_DOUBLE_EQ(multi[i], twice[i]);
  }
}

}  // namespace
}  // namespace wck
