#include "wavelet/haar.hpp"

#include <algorithm>
#include <array>
#include <string>

#include "util/error.hpp"

namespace wck {
namespace {

/// Scratch budget of one tile pass, in doubles: a tile wider than this
/// over its pairs is processed in column strips.
constexpr std::size_t kTileDoubles = std::size_t{1} << 15;

/// One pass of the transform along `axis` of `block`, forward or
/// inverse, tile by tile. On an outer axis a tile is extent(axis) rows,
/// stride(axis) apart; a row is the innermost extent of contiguous
/// doubles, widened by every trailing axis the block is dense over (at
/// level 1 the whole trailing sub-array). On the innermost axis a tile
/// is one line of one-double rows, and the lines that lie back to back
/// in memory form one run. The low half is computed in place and only
/// the high half goes through scratch; no line costs a call of its own.
/// Per element the arithmetic is Eq. 2-3, (a + b) / 2 and (a - b) / 2,
/// undone by lo + hi and lo - hi; odd extents keep their unpaired last
/// element in L.
class TilePass {
 public:
  TilePass(NdSpan<double> block, std::size_t axis, std::vector<double>& scratch)
      : block_(block), axis_(axis), scratch_(scratch) {
    const std::size_t r = block.rank();
    n_ = block.extent(axis);
    pairs_ = n_ / 2;
    step_ = static_cast<std::ptrdiff_t>(block.stride(axis));
    // Axis a - 1 continues axis a without a gap.
    const auto dense = [&block](std::size_t a) {
      return block.stride(a - 1) == block.extent(a) * block.stride(a);
    };
    first_ = r - 1;
    if (axis == r - 1) {
      while (first_ > 0 && dense(first_)) run_ *= block.extent(--first_);
    } else {
      width_ = block.extent(r - 1);
      while (first_ > axis + 1 && dense(first_)) width_ *= block.extent(--first_);
    }
    strip_ = std::clamp<std::size_t>(kTileDoubles / std::max<std::size_t>(pairs_, 1), 1, width_);
    scratch_.resize(pairs_ * strip_);
  }

  /// Runs fn(base) for every run of tiles in the block.
  template <typename Fn>
  void for_each_run(Fn&& fn) const {
    if (n_ < 2) return;
    std::array<std::size_t, kMaxRank> idx{};
    for (;;) {
      std::size_t off = 0;
      for (std::size_t a = 0; a < first_; ++a) off += idx[a] * block_.stride(a);
      fn(block_.data() + off);
      // Odometer over the axes left of the merged ones, except `axis`.
      std::size_t a = first_;
      bool done = true;
      while (a-- > 0) {
        if (a == axis_) continue;
        if (++idx[a] < block_.extent(a)) {
          done = false;
          break;
        }
        idx[a] = 0;
      }
      if (done) return;
    }
  }

  void forward(double* base) const {
    if (width_ > 1) {
      forward_tile<false>(base);
    } else if (n_ == 2 && run_ > 1) {  // back-to-back pairs, as in fig9's last axis
      for (std::size_t m = 0; m < 2 * run_; m += 2) {
        const double x = base[m];
        const double y = base[m + 1];
        base[m] = (x + y) / 2.0;
        base[m + 1] = (x - y) / 2.0;
      }
    } else {
      for (std::size_t m = 0; m < run_; ++m) forward_tile<true>(base + m * n_);
    }
  }

  void inverse(double* base) const {
    if (width_ > 1) {
      inverse_tile<false>(base);
    } else if (n_ == 2 && run_ > 1) {
      for (std::size_t m = 0; m < 2 * run_; m += 2) {
        const double l = base[m];
        const double d = base[m + 1];
        base[m] = l + d;
        base[m + 1] = l - d;
      }
    } else {
      for (std::size_t m = 0; m < run_; ++m) inverse_tile<true>(base + m * n_);
    }
  }

 private:
  // kUnit: rows of one double, where the row loops fold away.
  template <bool kUnit>
  void forward_tile(double* tile) const {
    for (std::size_t c = 0; c < width_; c += strip_) {
      const std::size_t w = kUnit ? 1 : std::min(strip_, width_ - c);
      double* base = tile + c;
      double* hi = scratch_.data();
      for (std::size_t i = 0; i < pairs_; ++i) {
        const double* a = row(base, 2 * i);
        const double* b = row(base, 2 * i + 1);
        double* lo = row(base, i);  // rows below 2i are already consumed
        double* h = hi + i * w;
        for (std::size_t j = 0; j < w; ++j) {
          const double x = a[j];
          const double y = b[j];
          lo[j] = (x + y) / 2.0;  // L (Eq. 2)
          h[j] = (x - y) / 2.0;   // H (Eq. 3)
        }
      }
      if (n_ % 2 != 0) copy_row(row(base, n_ - 1), row(base, pairs_), w);
      for (std::size_t i = 0; i < pairs_; ++i) copy_row(hi + i * w, row(base, n_ - pairs_ + i), w);
    }
  }

  template <bool kUnit>
  void inverse_tile(double* tile) const {
    for (std::size_t c = 0; c < width_; c += strip_) {
      const std::size_t w = kUnit ? 1 : std::min(strip_, width_ - c);
      double* base = tile + c;
      double* hi = scratch_.data();
      for (std::size_t i = 0; i < pairs_; ++i) copy_row(row(base, n_ - pairs_ + i), hi + i * w, w);
      if (n_ % 2 != 0) copy_row(row(base, pairs_), row(base, n_ - 1), w);
      // Descending, so row i is read before rows 2i and 2i + 1 are written.
      for (std::size_t i = pairs_; i-- > 0;) {
        const double* lo = row(base, i);
        const double* h = hi + i * w;
        double* a = row(base, 2 * i);
        double* b = row(base, 2 * i + 1);
        for (std::size_t j = 0; j < w; ++j) {
          const double l = lo[j];
          const double d = h[j];
          a[j] = l + d;
          b[j] = l - d;
        }
      }
    }
  }

  [[nodiscard]] double* row(double* base, std::size_t i) const noexcept {
    return base + static_cast<std::ptrdiff_t>(i) * step_;
  }

  static void copy_row(const double* src, double* dst, std::size_t w) noexcept {
    for (std::size_t j = 0; j < w; ++j) dst[j] = src[j];
  }

  NdSpan<double> block_;
  std::size_t axis_;
  std::vector<double>& scratch_;
  std::size_t n_ = 0;
  std::size_t pairs_ = 0;
  std::size_t first_ = 0;  ///< first axis merged into a row (or a run of lines)
  std::size_t width_ = 1;  ///< doubles per row
  std::size_t run_ = 1;    ///< back-to-back lines per run (innermost axis)
  std::size_t strip_ = 0;
  std::ptrdiff_t step_ = 0;
};

[[nodiscard]] Shape halved(const Shape& s) {
  Shape h = s;
  for (std::size_t ax = 0; ax < s.rank(); ++ax) h[ax] = (s[ax] + 1) / 2;
  return h;
}

[[nodiscard]] NdSpan<double> low_block(NdSpan<double> a, const Shape& low) {
  std::array<std::size_t, kMaxRank> offs{};
  std::array<std::size_t, kMaxRank> exts{};
  for (std::size_t ax = 0; ax < a.rank(); ++ax) exts[ax] = low[ax];
  return a.subblock(std::span(offs.data(), a.rank()), std::span(exts.data(), a.rank()));
}

}  // namespace

WaveletPlan WaveletPlan::create(const Shape& shape, int levels) {
  if (levels < 1) throw InvalidArgumentError("wavelet levels must be >= 1");
  WaveletPlan p;
  p.shape_ = shape;
  p.levels_ = levels;
  Shape cur = shape;
  for (int l = 0; l < levels; ++l) {
    cur = halved(cur);
    p.lows_.push_back(cur);
  }
  return p;
}

void haar_forward(NdSpan<double> a, int levels) {
  if (levels < 1) throw InvalidArgumentError("wavelet levels must be >= 1");
  std::vector<double> scratch;
  NdSpan<double> block = a;
  for (int l = 0; l < levels; ++l) {
    for (std::size_t ax = 0; ax < block.rank(); ++ax) {
      const TilePass pass(block, ax, scratch);
      pass.for_each_run([&pass](double* tile) { pass.forward(tile); });
    }
    block = low_block(block, halved(block.shape()));
  }
}

std::string band_name(int level, unsigned axis_mask, std::size_t rank) {
  std::string name = "l" + std::to_string(level) + ".";
  for (std::size_t ax = 0; ax < rank; ++ax) {
    name.push_back((axis_mask & (1u << ax)) != 0 ? 'H' : 'L');
  }
  return name;
}

void haar_inverse(NdSpan<double> a, int levels) {
  if (levels < 1) throw InvalidArgumentError("wavelet levels must be >= 1");
  // Reconstruct the chain of low blocks, then unwind from the deepest.
  std::vector<NdSpan<double>> blocks;
  blocks.reserve(static_cast<std::size_t>(levels));
  NdSpan<double> block = a;
  for (int l = 0; l < levels; ++l) {
    blocks.push_back(block);
    block = low_block(block, halved(block.shape()));
  }
  std::vector<double> scratch;
  for (int l = levels; l-- > 0;) {
    NdSpan<double> b = blocks[static_cast<std::size_t>(l)];
    for (std::size_t ax = b.rank(); ax-- > 0;) {
      const TilePass pass(b, ax, scratch);
      pass.for_each_run([&pass](double* tile) { pass.inverse(tile); });
    }
  }
}

}  // namespace wck
