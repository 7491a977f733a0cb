// Mantissa-truncation lossy baseline.
//
// A common alternative to transform-based lossy compression for FP
// checkpoints: zero the low mantissa bits of every double (bounding the
// pointwise *relative* error at 2^-kept) and let the entropy stage eat
// the resulting runs of zero bytes. Provided as an ablation comparator
// for the paper's wavelet pipeline: truncation bounds per-value relative
// error but cannot exploit spatial smoothness, so at equal error budget
// it compresses far less than the wavelet approach on mesh data.
//
// A bench comparator only: no checkpoint file can name it, so
// codec_for_decoding("truncation") is refused like any unknown codec.
#pragma once

#include <span>
#include <string>

#include "ckpt/codec.hpp"
#include "ndarray/ndarray.hpp"
#include "util/bytes.hpp"
#include "util/timer.hpp"

namespace wck {

/// Compresses by keeping only the top `keep_mantissa_bits` (0..52) of
/// each double's mantissa, then deflating. Self-describing output.
[[nodiscard]] Bytes truncation_compress(const NdArray<double>& array, int keep_mantissa_bits,
                                        int deflate_level = 6);

/// Inverse of truncation_compress (returns the truncated values).
[[nodiscard]] NdArray<double> truncation_decompress(std::span<const std::byte> data);

/// The truncation itself (in place), exposed for tests: zeroes the low
/// (52 - keep) mantissa bits of every element.
void truncate_mantissa(std::span<double> values, int keep_mantissa_bits);

/// truncation_compress as a Codec, so the benches can time it next to
/// the system's codecs.
class TruncationCodec final : public Codec {
 public:
  explicit TruncationCodec(int keep_mantissa_bits = 20, int deflate_level = 6)
      : keep_(keep_mantissa_bits), level_(deflate_level) {}
  [[nodiscard]] std::string name() const override { return "truncation"; }
  [[nodiscard]] bool lossy() const override { return true; }

 private:
  [[nodiscard]] Bytes do_encode(const NdArray<double>& array, StageTimes* times) const override;
  [[nodiscard]] NdArray<double> do_decode(std::span<const std::byte> data) const override;

  int keep_;
  int level_;
};

}  // namespace wck
