// Haar wavelet transformation (paper Sec. III-A).
//
// The 1D transform splits an array A into a low-frequency band
// L[i] = (A[2i] + A[2i+1]) / 2 and a high-frequency band
// H[i] = (A[2i] - A[2i+1]) / 2 (paper Eq. 2, 3), stored [L | H]. Odd-
// length lines keep their unpaired last element in L. Multi-dimensional
// arrays are transformed separably along every axis (Fig. 3), producing
// one low corner block (LL.., the averages) and 2^rank - 1 high bands.
// Multi-level transforms recurse into the low corner block.
//
// Each axis pass runs tile by tile (haar.cpp): the lines along the axis
// that share their other indexes, up to the innermost contiguous run,
// are transformed together, low half in place and high half through a
// tile-sized scratch, so no line costs a call or a gather/scatter of its
// own. The per-element arithmetic is exactly Eq. 2-3 and its inverse,
// so the tiling changes no result bit.
//
// The transform is the identity's inverse up to floating-point rounding:
// A[2i] = L[i] + H[i], A[2i+1] = L[i] - H[i]. Exactly invertible when
// (A[2i] + A[2i+1]) / 2 is representable (e.g. both values share an
// exponent neighbourhood), which tests exploit with dyadic data.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "ndarray/ndarray.hpp"
#include "ndarray/shape.hpp"

namespace wck {

/// Band geometry of a `levels`-deep Haar transform of `shape`.
class WaveletPlan {
 public:
  /// Throws InvalidArgumentError unless levels >= 1.
  static WaveletPlan create(const Shape& shape, int levels);

  [[nodiscard]] const Shape& shape() const noexcept { return shape_; }
  [[nodiscard]] int levels() const noexcept { return levels_; }

  /// Extents of the low corner block after `level + 1` transform levels
  /// (level in [0, levels)).
  [[nodiscard]] const Shape& low_extents(int level) const { return lows_.at(level); }

  /// Extents of the final low corner block.
  [[nodiscard]] const Shape& final_low_extents() const { return lows_.back(); }

  /// Number of elements in the final low corner (kept as raw doubles).
  [[nodiscard]] std::size_t low_count() const noexcept { return lows_.back().size(); }

  /// Number of high-frequency-band elements (quantization candidates).
  [[nodiscard]] std::size_t high_count() const noexcept {
    return shape_.size() - low_count();
  }

 private:
  Shape shape_;
  int levels_ = 0;
  std::vector<Shape> lows_;
};

/// In-place forward Haar transform of `a`, `levels` deep.
void haar_forward(NdSpan<double> a, int levels = 1);

/// In-place inverse Haar transform (exactly undoes haar_forward's band
/// layout; values recover up to FP rounding).
void haar_inverse(NdSpan<double> a, int levels = 1);

/// Visits every element of the high-frequency bands (all positions
/// outside the final low corner) in row-major order of the full array.
/// The same order is used by compression and decompression, so it is
/// part of the serialization contract.
template <typename T, typename Fn>
void for_each_high_band(NdSpan<T> a, const Shape& low_corner, Fn&& fn) {
  const std::size_t r = a.rank();
  std::array<std::size_t, kMaxRank> idx{};
  if (a.size() == 0) return;
  for (;;) {
    bool in_low = true;
    for (std::size_t ax = 0; ax < r; ++ax) {
      if (idx[ax] >= low_corner[ax]) {
        in_low = false;
        break;
      }
    }
    if (!in_low) {
      std::size_t off = 0;
      for (std::size_t ax = 0; ax < r; ++ax) off += idx[ax] * a.stride(ax);
      fn(a.data()[off]);
    }
    bool done = true;
    for (std::size_t ax = r; ax-- > 0;) {
      if (++idx[ax] < a.extent(ax)) {
        done = false;
        break;
      }
      idx[ax] = 0;
    }
    if (done) return;
  }
}

/// Canonical display name of a high band: "l<level>.<axis letters>",
/// e.g. "l1.HL" (level 1, high along axis 0, low along axis 1). Bit ax
/// of `axis_mask` set means the element lies in the high half of axis
/// ax at that level.
[[nodiscard]] std::string band_name(int level, unsigned axis_mask, std::size_t rank);

/// Enumerates the band identity of every high-band element in the SAME
/// row-major order as for_each_high_band, so the two walks can be
/// zipped: fn(ordinal, level, axis_mask) with ordinal counting high
/// elements from 0, level 1-based (level 1 = first transform), and
/// axis_mask as in band_name(). Pure geometry — no array needed, only
/// the plan. A rank-r transform has up to 2^r - 1 high bands per level
/// (bands vanish on axes already reduced to extent 1).
template <typename Fn>
void for_each_high_band_id(const WaveletPlan& plan, Fn&& fn) {
  const Shape& shape = plan.shape();
  const std::size_t r = shape.rank();
  if (shape.size() == 0) return;
  std::array<std::size_t, kMaxRank> idx{};
  std::size_t ordinal = 0;
  for (;;) {
    // Count how many nested low corners contain idx; the first one that
    // does not determines the element's level and its axis mask.
    int inside = 0;
    while (inside < plan.levels()) {
      const Shape& low = plan.low_extents(inside);
      bool in = true;
      for (std::size_t ax = 0; ax < r; ++ax) {
        if (idx[ax] >= low[ax]) {
          in = false;
          break;
        }
      }
      if (!in) break;
      ++inside;
    }
    if (inside < plan.levels()) {
      const Shape& low = plan.low_extents(inside);
      unsigned mask = 0;
      for (std::size_t ax = 0; ax < r; ++ax) {
        if (idx[ax] >= low[ax]) mask |= 1u << ax;
      }
      fn(ordinal++, inside + 1, mask);
    }
    bool done = true;
    for (std::size_t ax = r; ax-- > 0;) {
      if (++idx[ax] < shape[ax]) {
        done = false;
        break;
      }
      idx[ax] = 0;
    }
    if (done) return;
  }
}

/// Visits every element of the final low corner in row-major order.
template <typename T, typename Fn>
void for_each_low_band(NdSpan<T> a, const Shape& low_corner, Fn&& fn) {
  std::array<std::size_t, kMaxRank> offs{};
  std::array<std::size_t, kMaxRank> exts{};
  for (std::size_t ax = 0; ax < a.rank(); ++ax) exts[ax] = low_corner[ax];
  auto low = a.subblock(std::span(offs.data(), a.rank()), std::span(exts.data(), a.rank()));
  low.visit_row_major(fn);
}

}  // namespace wck
