// ZFP-inspired block-transform lossy compression.
//
// The second major family of scientific lossy compressors (alongside
// SZ's prediction approach, szlike/) descends from fpzip/zfp by the
// authors the paper cites as [32]. This from-scratch implementation
// follows zfp's fixed-precision architecture:
//
//  * the array is cut into 4^rank blocks (edge blocks replicate-padded);
//  * each block is converted to a block-floating-point representation:
//    a common exponent plus integers of `precision` bits;
//  * zfp's integer lifting transform decorrelates each axis (an
//    orthogonal-ish 4-point transform using only shifts and adds);
//  * transformed coefficients (mostly near zero on smooth data) are
//    zigzag-varint coded and deflated.
//
// The precision knob bounds the error relative to each block's
// magnitude: |err| <~ max|block| * 2^(2 - precision + rank).
#pragma once

#include <span>

#include "ndarray/ndarray.hpp"
#include "util/bytes.hpp"

namespace wck {

struct ZfpLikeOptions {
  /// Bits of block-relative precision (8..30). Higher = more accurate,
  /// larger. 26 roughly matches single-precision accuracy per block.
  int precision = 20;
  int deflate_level = 6;
};

/// Compresses with block-relative bounded error (self-describing).
[[nodiscard]] Bytes zfplike_compress(const NdArray<double>& array,
                                     const ZfpLikeOptions& options = {});

/// Inverse of zfplike_compress.
[[nodiscard]] NdArray<double> zfplike_decompress(std::span<const std::byte> data);

}  // namespace wck
