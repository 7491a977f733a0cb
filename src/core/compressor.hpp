// The paper's primary contribution: floating-point lossy compression for
// checkpoints (Fig. 1). Pipeline:
//
//   1. Haar wavelet transformation        (src/wavelet, Sec. III-A)
//   2. Quantization of high-freq bands    (src/quantize, Sec. III-B)
//   3. 1-byte index encoding              (src/encode, Sec. III-C)
//   4. Output formatting w/ bitmap        (src/encode, Sec. III-D)
//   5. gzip/deflate of the formatted data (src/deflate)
//
// Every stage is timed once, as "other", "wavelet", "quantize", "encode"
// and "deflate" (non-overlapping), so benchmarks can reproduce the
// paper's Fig. 9 cost breakdown. Decompression times its own three
// layers under distinct names: "inflate", "decode" (payload parse and
// band fill) and "wavelet_inverse". The paper's temp-file gzip path lives
// in the benches that reproduce it (bench/bench_common.hpp).
#pragma once

#include <cstdint>
#include <span>

#include "deflate/parallel.hpp"
#include "encode/payload.hpp"
#include "ndarray/ndarray.hpp"
#include "quantize/quantizer.hpp"
#include "stats/error_metrics.hpp"
#include "util/bytes.hpp"
#include "util/timer.hpp"
#include "wavelet/transform.hpp"

namespace wck {

/// How the formatted payload is entropy-coded.
enum class EntropyMode : std::uint8_t {
  kNone = 0,         ///< formatted payload only (ablation baseline)
  kDeflate = 1,      ///< in-memory deflate (the paper's Sec. IV-D
                     ///< suggested improvement) in the WCKP block
                     ///< container; one block when the payload fits
  kHuffmanOnly = 3,  ///< order-0 Huffman, no LZ77: several-fold faster
                     ///< than deflate at a small ratio cost (the paper's
                     ///< "other compression methods" future work)
};

struct CompressionParams {
  QuantizerConfig quantizer{};
  int wavelet_levels = 1;  ///< the paper uses a single level per axis
  /// The transform, always Haar (paper Sec. III-A). A constant, not an
  /// option: it stays only because the perfbench driver reads
  /// `params.wavelet`, and ROADMAP item 1's benchmark change can drop it.
  static constexpr WaveletKind wavelet = WaveletKind::kHaar;
  EntropyMode entropy = EntropyMode::kDeflate;
  int deflate_level = 6;
  /// Entropy-stage worker count; never changes the output bytes, which
  /// depend only on (payload, deflate_block_size). 0 (default) reads
  /// WCK_THREADS, one worker when it is unset; N >= 1 uses N workers
  /// (1 compresses inline). Negative values are rejected.
  int threads = 0;
  /// Uncompressed bytes per WCKP block.
  std::size_t deflate_block_size = kDefaultDeflateBlockSize;
};

/// Result of compressing one array.
struct CompressedArray {
  Bytes data;                      ///< self-describing stream
  std::size_t original_bytes = 0;
  std::size_t payload_bytes = 0;   ///< formatted size before entropy stage
  std::size_t high_count = 0;      ///< high-band elements
  std::size_t quantized_count = 0; ///< of which quantized to indexes
  StageTimes times;                ///< "other", "wavelet", "quantize",
                                   ///< "encode", "deflate"

  /// Eq. 5 (percent; lower is better).
  [[nodiscard]] double compression_rate_percent() const noexcept {
    return original_bytes == 0
               ? 0.0
               : 100.0 * static_cast<double>(data.size()) / static_cast<double>(original_bytes);
  }
};

/// Observation hook into one compress() invocation: fired after the
/// wavelet transform and quantization analysis, before entropy coding.
/// Spans/references are only valid for the duration of the call. The
/// quality analyzer (src/quality) implements this; core deliberately
/// only knows the abstract interface so the dependency points outward.
class CompressionObserver {
 public:
  virtual ~CompressionObserver() = default;

  /// `high` holds the high-band coefficients in the canonical
  /// for_each_high_band order; `scheme` is the quantization scheme the
  /// payload was built with.
  virtual void on_compress(const NdArray<double>& original, const WaveletPlan& plan,
                           std::span<const double> high,
                           const QuantizationScheme& scheme) = 0;
};

/// Parameters recovered from a self-describing compressed stream
/// without reconstructing the array (header + payload metadata only).
struct StreamInfo {
  Shape shape;
  int levels = 0;
  QuantizerKind quantizer = QuantizerKind::kSpike;
  std::uint8_t entropy_tag = 0;      ///< 0 none, 3 Huffman-only, 4 WCKP deflate
                                     ///< (the only tags a stream can carry)
  std::size_t averages_count = 0;    ///< quantization table size (== effective n)
  std::size_t high_count = 0;        ///< high-band elements (bitmap size)
  std::size_t quantized_count = 0;   ///< of which stored as 1-byte indexes
  std::size_t exact_count = 0;       ///< stored as raw doubles (outside spike)
  std::size_t payload_bytes = 0;     ///< formatted size after entropy decode
};

/// The lossy checkpoint compressor (thread-safe: compress/decompress are
/// const and reentrant; attach_observer is not — configure before
/// sharing across threads, and the observer itself must be thread-safe
/// if compress runs concurrently).
class WaveletCompressor {
 public:
  /// Throws InvalidArgumentError on out-of-range parameters.
  explicit WaveletCompressor(CompressionParams params = {});

  [[nodiscard]] const CompressionParams& params() const noexcept { return params_; }

  /// Attaches (or detaches, with nullptr) a per-compress observer.
  void attach_observer(CompressionObserver* observer) noexcept { observer_ = observer; }

  /// Compresses `input` (any rank 1..4). Throws InvalidArgumentError on
  /// empty input.
  [[nodiscard]] CompressedArray compress(const NdArray<double>& input) const;

  /// Decompresses a stream produced by compress() (any parameter set —
  /// the stream is self-describing).
  [[nodiscard]] static NdArray<double> decompress(std::span<const std::byte> data);

  /// Reads the stream's parameters and payload composition without
  /// rebuilding the array (the `wckpt analyze`/`info` path). Throws
  /// FormatError on a malformed stream.
  [[nodiscard]] static StreamInfo inspect(std::span<const std::byte> data);

  /// Convenience: compress, decompress, and report Eq. 6 error stats.
  struct RoundTrip {
    CompressedArray compressed;
    NdArray<double> reconstructed;
    ErrorStats error;
  };
  [[nodiscard]] RoundTrip round_trip(const NdArray<double>& input) const;

 private:
  CompressionParams params_;
  CompressionObserver* observer_ = nullptr;
};

/// Writes the bands of a parsed payload into a new array of its shape,
/// each element once: the low corner from the low-band view, every
/// other element from the bitmap, indexes and exact values, in the
/// for_each_low_band / for_each_high_band orders the stream was written
/// in. The result is the transform-domain array wavelet_inverse turns
/// back into data. Throws FormatError when the band sizes do not match
/// the shape's transform plan.
[[nodiscard]] NdArray<double> decode_bands(const PayloadView& view);

/// Extension the paper lists as future work (Sec. IV-C): instead of the
/// user hand-tuning the division number `n`, pick the smallest power-of-
/// two n whose measured mean relative error meets `max_mean_rel_error`
/// (a fraction, e.g. 0.001 = 0.1 %).
struct ErrorBoundResult {
  CompressedArray compressed;
  ErrorStats error;
  int chosen_divisions = 0;
  bool met_bound = false;
};
[[nodiscard]] ErrorBoundResult compress_with_error_bound(const NdArray<double>& input,
                                                         double max_mean_rel_error,
                                                         CompressionParams base = {});

}  // namespace wck
