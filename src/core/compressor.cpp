#include "core/compressor.hpp"

#include <algorithm>
#include <string>

#include "deflate/deflate.hpp"
#include "deflate/huffman_only.hpp"
#include "deflate/parallel.hpp"
#include "simd/dispatch.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "wavelet/haar.hpp"

namespace wck {
namespace {

constexpr std::uint8_t kTagNone = 0;
constexpr std::uint8_t kTagZlib = 1;     ///< read-only: no longer written
constexpr std::uint8_t kTagGzip = 2;     ///< read-only: no longer written
constexpr std::uint8_t kTagHuffman = 3;
constexpr std::uint8_t kTagSharded = 4;  ///< WCKP block deflate container

/// Undoes the entropy stage behind `tag`, returning the formatted
/// payload (a view of `body`, or of `storage` when it had to be
/// decoded). Throws FormatError for an unknown tag.
std::span<const std::byte> entropy_decode(std::uint8_t tag, std::span<const std::byte> body,
                                          Bytes& storage) {
  switch (tag) {
    case kTagNone:
      return body;
    case kTagZlib:
      storage = zlib_decompress(body);
      break;
    case kTagGzip:
      storage = gzip_decompress(body);
      break;
    case kTagHuffman:
      storage = huffman_only_decompress(body);
      break;
    case kTagSharded:
      storage = sharded_deflate_decompress(body);
      break;
    default:
      throw FormatError("unknown entropy tag " + std::to_string(tag));
  }
  return storage;
}

}  // namespace

WaveletCompressor::WaveletCompressor(CompressionParams params) : params_(std::move(params)) {
  if (params_.wavelet_levels < 1) {
    throw InvalidArgumentError("wavelet_levels must be >= 1");
  }
  if (params_.quantizer.divisions < 1 || params_.quantizer.divisions > 256) {
    throw InvalidArgumentError("quantizer divisions must be 1..256");
  }
  if (params_.threads < 0) {
    throw InvalidArgumentError("threads must be >= 0, got " + std::to_string(params_.threads));
  }
}

CompressedArray WaveletCompressor::compress(const NdArray<double>& input) const {
  if (input.size() == 0) throw InvalidArgumentError("cannot compress an empty array");
  WCK_TRACE_SPAN("compress");
  WCK_COUNTER_ADD("compress.calls", 1);
  WCK_COUNTER_ADD("compress.bytes_in", input.size_bytes());

  CompressedArray out;
  out.original_bytes = input.size_bytes();

  // --- "other": working copy of the input (the transform is in-place).
  NdArray<double> work;
  {
    WCK_STAGE("other", &out.times);
    work = input;
  }

  // --- Stage 1: wavelet transformation.
  const WaveletPlan plan = WaveletPlan::create(input.shape(), params_.wavelet_levels);
  {
    WCK_STAGE("wavelet", &out.times);
    wavelet_forward(work.view(), params_.wavelet, params_.wavelet_levels);
  }

  // --- Stages 2-4: quantization, then encoding + formatting. Fig. 9's
  // "quantization+encoding" is their sum.
  Bytes payload_bytes;
  // Hoisted past the stage scopes so an attached observer can inspect
  // them without perturbing the timed stages.
  std::vector<double> high;
  QuantizationScheme scheme;
  {
    LossyPayload p;
    {
      WCK_STAGE("quantize", &out.times);
      const simd::KernelTable& kern = simd::kernels();
      high.reserve(plan.high_count());
      for_each_high_band(work.view(), plan.final_low_extents(),
                         [&high](double& v) { high.push_back(v); });
      // Range-scan the contiguous copy with the vector kernel so
      // analyze() skips its own min/max pass; the kernel replicates the
      // analyzer's sequential fold, so the scheme is bit-identical.
      ValueRange range;
      if (!high.empty()) {
        kern.range_min_max(high.data(), high.size(), &range.min, &range.max);
      }

      scheme = QuantizationScheme::analyze(high, params_.quantizer,
                                           high.empty() ? nullptr : &range);

      p.shape = input.shape();
      p.levels = params_.wavelet_levels;
      p.wavelet = params_.wavelet;
      p.quantizer = params_.quantizer.kind;
      p.averages = scheme.averages();
      p.low_band.reserve(plan.low_count());
      for_each_low_band(work.view(), plan.final_low_extents(),
                        [&p](double& v) { p.low_band.push_back(v); });
      std::vector<std::int32_t> cls(high.size());
      scheme.classify_batch(high, cls);
      p.quantized = Bitmap::from_classification(cls);
      p.indices.reserve(p.quantized.count());
      for (std::size_t i = 0; i < high.size(); ++i) {
        if (cls[i] >= 0) {
          p.indices.push_back(static_cast<std::uint8_t>(cls[i]));
        } else {
          p.exact_values.push_back(high[i]);
        }
      }
    }
    out.high_count = high.size();
    out.quantized_count = p.indices.size();

    WCK_STAGE("encode", &out.times);
    payload_bytes = encode_payload(p);
  }
  out.payload_bytes = payload_bytes.size();

  // Observer sees the coefficients exactly as the payload encodes them,
  // outside every timed stage.
  if (observer_ != nullptr) observer_->on_compress(input, plan, high, scheme);

  // --- Stage 5: entropy coding of the formatted stream (Fig. 9's "gzip").
  if (params_.entropy == EntropyMode::kNone) {
    out.data.push_back(static_cast<std::byte>(kTagNone));
    out.data.insert(out.data.end(), payload_bytes.begin(), payload_bytes.end());
  } else {
    const bool huffman = params_.entropy == EntropyMode::kHuffmanOnly;
    Bytes body;
    {
      WCK_STAGE("deflate", &out.times);
      body = huffman ? huffman_only_compress(payload_bytes)
                     : sharded_deflate_compress(payload_bytes,
                                                {params_.deflate_level, params_.deflate_block_size,
                                                 resolve_deflate_threads(params_.threads)});
    }
    out.data.push_back(static_cast<std::byte>(huffman ? kTagHuffman : kTagSharded));
    out.data.insert(out.data.end(), body.begin(), body.end());
  }
  WCK_COUNTER_ADD("compress.bytes_out", out.data.size());
  WCK_COUNTER_ADD("compress.payload_bytes", out.payload_bytes);
  return out;
}

NdArray<double> WaveletCompressor::decompress(std::span<const std::byte> data) {
  if (data.empty()) throw FormatError("empty compressed stream");
  WCK_TRACE_SPAN("decompress");
  WCK_COUNTER_ADD("decompress.calls", 1);
  WCK_COUNTER_ADD("decompress.bytes_in", data.size());
  const auto tag = static_cast<std::uint8_t>(data[0]);
  Bytes storage;
  const std::span<const std::byte> payload = entropy_decode(tag, data.subspan(1), storage);

  const LossyPayload p = decode_payload(payload);
  const WaveletPlan plan = WaveletPlan::create(p.shape, p.levels);
  if (p.low_band.size() != plan.low_count()) {
    throw FormatError("payload low band size does not match transform plan");
  }
  if (p.quantized.size() != plan.high_count()) {
    throw FormatError("payload bitmap size does not match transform plan");
  }

  NdArray<double> work(p.shape);
  {
    std::size_t li = 0;
    for_each_low_band(work.view(), plan.final_low_extents(),
                      [&](double& v) { v = p.low_band[li++]; });
  }
  {
    // Materialize the high bands contiguously through the select kernel
    // (decode_payload validated popcount == #indices, every index <
    // #averages, and #exact == size - popcount), then scatter along the
    // serialization walk.
    const std::size_t n = p.quantized.size();
    std::vector<double> high(n);
    if (n > 0) {
      simd::kernels().bitmap_select(p.quantized.words().data(), n, p.averages.data(),
                                    p.indices.data(), p.exact_values.data(), high.data());
    }
    std::size_t hi = 0;
    for_each_high_band(work.view(), plan.final_low_extents(),
                       [&high, &hi](double& v) { v = high[hi++]; });
  }
  wavelet_inverse(work.view(), p.wavelet, p.levels);
  return work;
}

StreamInfo WaveletCompressor::inspect(std::span<const std::byte> data) {
  if (data.empty()) throw FormatError("empty compressed stream");
  const auto tag = static_cast<std::uint8_t>(data[0]);
  Bytes storage;
  const std::span<const std::byte> payload = entropy_decode(tag, data.subspan(1), storage);

  const LossyPayload p = decode_payload(payload);
  StreamInfo info;
  info.shape = p.shape;
  info.levels = p.levels;
  info.wavelet = p.wavelet;
  info.quantizer = p.quantizer;
  info.entropy_tag = tag;
  info.averages_count = p.averages.size();
  info.high_count = p.quantized.size();
  info.quantized_count = p.indices.size();
  info.exact_count = p.exact_values.size();
  info.payload_bytes = payload.size();
  return info;
}

WaveletCompressor::RoundTrip WaveletCompressor::round_trip(const NdArray<double>& input) const {
  RoundTrip rt{compress(input), NdArray<double>{}, ErrorStats{}};
  rt.reconstructed = decompress(rt.compressed.data);
  rt.error = relative_error(input.values(), rt.reconstructed.values());
  return rt;
}

ErrorBoundResult compress_with_error_bound(const NdArray<double>& input,
                                           double max_mean_rel_error,
                                           CompressionParams base) {
  if (max_mean_rel_error <= 0.0) {
    throw InvalidArgumentError("error bound must be positive");
  }
  ErrorBoundResult best;
  bool have_best = false;
  for (int n = 1; n <= 256; n *= 2) {
    CompressionParams p = base;
    p.quantizer.divisions = n;
    const WaveletCompressor compressor(p);
    auto rt = compressor.round_trip(input);
    if (rt.error.mean_rel <= max_mean_rel_error) {
      best.compressed = std::move(rt.compressed);
      best.error = rt.error;
      best.chosen_divisions = n;
      best.met_bound = true;
      return best;
    }
    // Keep the lowest-error attempt as the best-effort fallback (the
    // error is not strictly monotone in n on all data).
    if (!have_best || rt.error.mean_rel < best.error.mean_rel) {
      best.compressed = std::move(rt.compressed);
      best.error = rt.error;
      best.chosen_divisions = n;
      have_best = true;
    }
  }
  best.met_bound = false;
  return best;
}

}  // namespace wck
