#include "fields.hpp"

#include "core/synthetic.hpp"

namespace pb {
namespace {

constexpr std::size_t kTile = 16;
constexpr std::size_t kTileSource = 64;  // the tile is the corner of a seeded 64x64 field

std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  return seed * 0x9E3779B97F4A7C15ull + a * 0x632BE59BD9B4E019ull + b * 0x85EBCA77C2B2AE63ull;
}

}  // namespace

wck::NdArray<double> paper_field(int kind, std::uint64_t seed, std::uint64_t snapshot) {
  // One fixed simulated state per field kind, seen at a seeded moment:
  // the seed draws a weak large-scale anomaly on top. Successive
  // checkpoints of one run differ like this, so the inputs change with
  // the seed while their compressibility, which Eq. 5 and Eq. 6 report,
  // stays that of the same model state.
  constexpr std::uint64_t kState = 2015;
  constexpr double kAnomaly = 0.05;
  const auto k = static_cast<std::uint64_t>(kind);
  wck::NdArray<double> f = kind == 1 ? wck::make_temperature_field(kPaperShape, kState + k)
                                     : wck::make_smooth_field(kPaperShape, kState + k, 0.001);
  const wck::NdArray<double> anomaly =
      wck::make_smooth_field(kPaperShape, mix(seed, k, snapshot), 0.001);
  const double scale = kind == 0 ? 15.0 : kind == 1 ? 3.0 : 12.0;
  const double offset = kind == 0 ? 1000.0 : 0.0;
  for (std::size_t i = 0; i < f.size(); ++i) {
    const double base = kind == 1 ? f[i] : offset + scale * f[i];
    f[i] = base + kAnomaly * scale * anomaly[i];
  }
  return f;
}

wck::NdArray<double> small_tile(std::uint64_t seed) {
  const wck::NdArray<double> field =
      wck::make_smooth_field(wck::Shape{kTileSource, kTileSource}, mix(seed, 7, 0), 0.01);
  wck::NdArray<double> tile(wck::Shape{kTile, kTile});
  for (std::size_t r = 0; r < kTile; ++r) {
    for (std::size_t c = 0; c < kTile; ++c) tile(r, c) = field(r, c);
  }
  return tile;
}

}  // namespace pb
