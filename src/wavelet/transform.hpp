// The pipeline's one transform, named the way the perfbench driver
// calls it.
//
// The paper uses the Haar transform (Sec. III-A) and nothing else, so
// the compressor calls haar_forward / haar_inverse directly. These
// names remain only because perfbench/driver/layers.cpp replays the
// wavelet layer through them; ROADMAP item 1's benchmark change can
// switch that replay to haar_forward / haar_inverse and drop this
// header, together with CompressionParams::wavelet.
#pragma once

#include <cstdint>

#include "ndarray/ndarray.hpp"
#include "wavelet/haar.hpp"

namespace wck {

/// The transform family. Haar is the only one; the stream's wavelet
/// byte is always this value.
enum class WaveletKind : std::uint8_t { kHaar = 0 };

/// haar_forward(a, levels).
inline void wavelet_forward(NdSpan<double> a, WaveletKind /*kind*/, int levels) {
  haar_forward(a, levels);
}

/// haar_inverse(a, levels).
inline void wavelet_inverse(NdSpan<double> a, WaveletKind /*kind*/, int levels) {
  haar_inverse(a, levels);
}

}  // namespace wck
