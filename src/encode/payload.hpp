// Serialization of the lossy-compressed array payload (paper Fig. 5).
//
// The formatted stream holds, in order: a header (shape, transform
// depth, quantizer metadata), the averages table, the raw low-frequency
// band, the quantization bitmap, the 1-byte indexes of quantized
// high-band values, and the exact doubles of unquantized high-band
// values. The stream is subsequently compressed with gzip/deflate by the
// core pipeline ("Finally, we apply gzip to the formatted output").
//
// Decoding goes through parse_payload, which validates the stream and
// returns views of its sections inside the caller's buffer, so the
// restore path reads each section once, straight into the output
// array. decode_payload copies those views into a LossyPayload.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "encode/bitmap.hpp"
#include "ndarray/shape.hpp"
#include "quantize/quantizer.hpp"
#include "util/bytes.hpp"
#include "wavelet/transform.hpp"

namespace wck {

/// The fully quantized + encoded representation of one array, prior to
/// the final entropy (gzip) stage.
struct LossyPayload {
  Shape shape;                     ///< original array extents
  int levels = 1;                  ///< wavelet transform depth
  WaveletKind wavelet = WaveletKind::kHaar;
  QuantizerKind quantizer = QuantizerKind::kSpike;
  std::vector<double> averages;    ///< representative values (size <= 256)
  std::vector<double> low_band;    ///< final low corner, row-major
  Bitmap quantized;                ///< per high-band element, canonical order
  std::vector<std::uint8_t> indices;  ///< one per set bitmap bit
  std::vector<double> exact_values;   ///< one per clear bitmap bit

  /// Total element count of the original array.
  [[nodiscard]] std::size_t element_count() const noexcept { return shape.size(); }
};

/// A parsed, fully validated payload whose sections are views into the
/// buffer it was parsed from; it is valid only while that buffer lives.
/// Doubles stay in their little-endian stream form. Every count has
/// been checked against the bytes present before anything was sized,
/// and every cross-section invariant decode needs holds: popcount of
/// the bitmap == indices.size(), exact_values holds high_count -
/// indices.size() doubles, and every index is below averages_count().
struct PayloadView {
  Shape shape;
  int levels = 1;
  WaveletKind wavelet = WaveletKind::kHaar;
  QuantizerKind quantizer = QuantizerKind::kSpike;
  std::span<const std::byte> averages;        ///< averages_count() doubles
  std::span<const std::byte> low_band;        ///< low_count() doubles, row-major
  std::span<const std::byte> bitmap;          ///< ceil(high_count / 8) bytes, LSB first
  std::size_t high_count = 0;                 ///< bitmap bits (high-band elements)
  std::span<const std::uint8_t> indices;      ///< one per set bitmap bit
  std::span<const std::byte> exact_values;    ///< exact_count() doubles

  [[nodiscard]] std::size_t averages_count() const noexcept { return averages.size() / 8; }
  [[nodiscard]] std::size_t low_count() const noexcept { return low_band.size() / 8; }
  [[nodiscard]] std::size_t exact_count() const noexcept { return exact_values.size() / 8; }
};

/// Serializes the payload (Fig. 5 layout; little-endian; CRC-protected).
[[nodiscard]] Bytes encode_payload(const LossyPayload& payload);

/// Parses and validates a payload without copying a section. The one
/// validator of the format. Throws FormatError / CorruptDataError.
[[nodiscard]] PayloadView parse_payload(std::span<const std::byte> data);

/// parse_payload, then copies every section into owned vectors.
[[nodiscard]] LossyPayload decode_payload(std::span<const std::byte> data);

}  // namespace wck
