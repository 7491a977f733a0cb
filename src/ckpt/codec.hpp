// Checkpoint codecs: pluggable per-array (de)serialization strategies.
//
//  * NullCodec        — raw doubles (the paper's "without compression").
//  * GzipCodec        — gzip over the raw doubles (Fig. 6's lossless
//                       baseline, cr ~ 87 % on FP mesh data).
//  * WaveletLossyCodec— the paper's proposed pipeline (src/core).
//  * FpcCodec         — FPC-style predictive lossless compression
//                       (src/fpc), the paper's related-work comparator.
//
// Every codec's output is self-describing (shape embedded), so decoding
// needs only the codec name, which the checkpoint file records.
// codec_for_decoding resolves exactly these four names; a file naming
// any other codec, including the bench-only comparators in bench/study/
// (the mantissa-truncating baseline, szlike, zfplike), is refused.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "core/compressor.hpp"
#include "ndarray/ndarray.hpp"
#include "util/bytes.hpp"
#include "util/timer.hpp"

namespace wck {

class Codec {
 public:
  virtual ~Codec() = default;

  /// Stable identifier recorded in checkpoint files.
  [[nodiscard]] virtual std::string name() const = 0;

  /// True if decode(encode(x)) may differ from x.
  [[nodiscard]] virtual bool lossy() const = 0;

  /// Serializes one array. If `times` is non-null, stage timings are
  /// accumulated into it (stage names as in CompressedArray::times).
  [[nodiscard]] Bytes encode(const NdArray<double>& array, StageTimes* times = nullptr) const {
    return do_encode(array, times);
  }

  /// Reconstructs an array from encode() output.
  [[nodiscard]] NdArray<double> decode(std::span<const std::byte> data) const {
    return do_decode(data);
  }

 private:
  [[nodiscard]] virtual Bytes do_encode(const NdArray<double>& array,
                                        StageTimes* times) const = 0;
  [[nodiscard]] virtual NdArray<double> do_decode(std::span<const std::byte> data) const = 0;
};

/// Raw little-endian doubles with a shape header; no compression.
class NullCodec final : public Codec {
 public:
  [[nodiscard]] std::string name() const override { return "null"; }
  [[nodiscard]] bool lossy() const override { return false; }

 private:
  [[nodiscard]] Bytes do_encode(const NdArray<double>& array, StageTimes* times) const override;
  [[nodiscard]] NdArray<double> do_decode(std::span<const std::byte> data) const override;
};

/// gzip (our from-scratch DEFLATE) over the raw representation: the
/// lossless baseline the paper compares against in Fig. 6.
class GzipCodec final : public Codec {
 public:
  explicit GzipCodec(int level = 6) : level_(level) {}
  [[nodiscard]] std::string name() const override { return "gzip"; }
  [[nodiscard]] bool lossy() const override { return false; }

 private:
  [[nodiscard]] Bytes do_encode(const NdArray<double>& array, StageTimes* times) const override;
  [[nodiscard]] NdArray<double> do_decode(std::span<const std::byte> data) const override;

  int level_;
};

/// The paper's wavelet + quantization + encoding + gzip pipeline.
/// CompressionParams::threads (or WCK_THREADS) sets how many workers
/// the block deflate stage uses, so CheckpointManager checkpoints and
/// store-service puts scale with cores through this codec without
/// further plumbing; the bytes do not depend on it.
class WaveletLossyCodec final : public Codec {
 public:
  explicit WaveletLossyCodec(CompressionParams params = {})
      : compressor_(std::move(params)) {}
  [[nodiscard]] std::string name() const override { return "wavelet-lossy"; }
  [[nodiscard]] bool lossy() const override { return true; }

  [[nodiscard]] const CompressionParams& params() const noexcept {
    return compressor_.params();
  }

 private:
  [[nodiscard]] Bytes do_encode(const NdArray<double>& array, StageTimes* times) const override;
  [[nodiscard]] NdArray<double> do_decode(std::span<const std::byte> data) const override;

  WaveletCompressor compressor_;
};

/// FPC-style predictive lossless compression (src/fpc) — the paper's
/// related-work comparator [17] for FP checkpoint data.
class FpcCodec final : public Codec {
 public:
  explicit FpcCodec(int table_log2 = 16) : table_log2_(table_log2) {}
  [[nodiscard]] std::string name() const override { return "fpc"; }
  [[nodiscard]] bool lossy() const override { return false; }

 private:
  [[nodiscard]] Bytes do_encode(const NdArray<double>& array, StageTimes* times) const override;
  [[nodiscard]] NdArray<double> do_decode(std::span<const std::byte> data) const override;

  int table_log2_;
};

/// Returns a decoder instance for a codec name recorded in a checkpoint
/// file (decoding never needs encode-side parameters). Throws
/// FormatError for unknown names.
[[nodiscard]] const Codec& codec_for_decoding(std::string_view name);

}  // namespace wck
