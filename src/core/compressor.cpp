#include "core/compressor.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <string>

#include "deflate/huffman_only.hpp"
#include "deflate/parallel.hpp"
#include "simd/dispatch.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "wavelet/haar.hpp"

namespace wck {
namespace {

// Entropy tags. A stream is readable iff its tag is one compress() can
// write (DESIGN.md, "Format-read policy"); tags 1 (zlib) and 2 (gzip)
// are retired and read as unknown.
constexpr std::uint8_t kTagNone = 0;
constexpr std::uint8_t kTagHuffman = 3;
constexpr std::uint8_t kTagSharded = 4;  ///< WCKP block deflate container

/// Undoes the entropy stage behind `tag`, returning the formatted
/// payload (a view of `body`, or of `storage` when it had to be
/// decoded). Throws FormatError for a tag compress() does not write.
std::span<const std::byte> entropy_decode(std::uint8_t tag, std::span<const std::byte> body,
                                          Bytes& storage) {
  switch (tag) {
    case kTagNone:
      return body;
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

/// One little-endian double.
[[nodiscard]] double f64_le(const std::byte* in) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, in, sizeof bits);
  if constexpr (std::endian::native == std::endian::big) bits = __builtin_bswap64(bits);
  return std::bit_cast<double>(bits);
}

/// Hands out the high-band values of a parsed payload in serialization
/// order: bitmap bit k set means averages[next index], clear means the
/// next exact value. Works 56 bits at a time: a chunk of one kind is a
/// gather or one bulk copy, a mixed chunk a branch-free select.
/// parse_payload's invariants (popcount == #indices, #exact == #bits -
/// popcount, indexes < #averages) keep every read in bounds as long as
/// no more than high_count values are taken in total.
class HighBandReader {
 public:
  HighBandReader(const PayloadView& v, const simd::KernelTable& kern)
      : bitmap_(v.bitmap), indices_(v.indices.data()), exact_(v.exact_values.data()),
        kern_(kern) {
    kern_.unpack_f64_le(v.averages.data(), v.averages_count(), averages_.data());
  }

  /// Writes the next n high-band values to out[0..n).
  void take(double* out, std::size_t n) {
    while (n > 0) {
      const std::size_t k = std::min<std::size_t>(n, 56);
      const std::uint64_t bits = bits_at(pos_) & ((std::uint64_t{1} << k) - 1);
      const auto q = static_cast<std::size_t>(std::popcount(bits));
      if (q == k) {
        for (std::size_t j = 0; j < k; ++j) out[j] = averages_[indices_[j]];
      } else if (q == 0) {
        kern_.unpack_f64_le(exact_, k, out);
      } else {
        // Both kinds occur, so clamping each cursor to its last entry in
        // this chunk keeps the unused read in bounds.
        const std::size_t e = k - q;
        std::size_t qi = 0;
        std::size_t ei = 0;
        for (std::size_t j = 0; j < k; ++j) {
          const bool quantized = ((bits >> j) & 1u) != 0;
          const double a = averages_[indices_[std::min(qi, q - 1)]];
          const double x = f64_le(exact_ + std::min(ei, e - 1) * sizeof(double));
          out[j] = quantized ? a : x;
          qi += quantized ? 1 : 0;
          ei += quantized ? 0 : 1;
        }
      }
      indices_ += q;
      exact_ += (k - q) * sizeof(double);
      out += k;
      n -= k;
      pos_ += k;
    }
  }

 private:
  [[nodiscard]] std::uint64_t bits_at(std::size_t pos) const noexcept {
    const std::size_t first = pos / 8;
    std::uint64_t w = 0;
    if (first + 8 <= bitmap_.size()) {
      std::memcpy(&w, bitmap_.data() + first, 8);
      if constexpr (std::endian::native == std::endian::big) w = __builtin_bswap64(w);
    } else {
      for (std::size_t b = 0; first + b < bitmap_.size(); ++b) {
        w |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(bitmap_[first + b])) << (8 * b);
      }
    }
    return w >> (pos % 8);
  }

  std::span<const std::byte> bitmap_;
  const std::uint8_t* indices_;
  const std::byte* exact_;
  const simd::KernelTable& kern_;
  std::array<double, 256> averages_{};
  std::size_t pos_ = 0;
};

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
    haar_forward(work.view(), params_.wavelet_levels);
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

NdArray<double> decode_bands(const PayloadView& view) {
  const WaveletPlan plan = WaveletPlan::create(view.shape, view.levels);
  if (view.low_count() != plan.low_count()) {
    throw FormatError("payload low band size does not match transform plan");
  }
  if (view.high_count != plan.high_count()) {
    throw FormatError("payload bitmap size does not match transform plan");
  }
  NdArray<double> out(view.shape);
  const simd::KernelTable& kern = simd::kernels();
  HighBandReader high(view, kern);

  // The array is written in memory order. A row whose outer indexes all
  // lie inside the low corner starts with low_row low-band values; every
  // other element is the next high-band value. Low values are therefore
  // consumed in the low corner's row-major order and high values in the
  // full array's, which are the for_each_low_band / for_each_high_band
  // orders of the serialization contract. Once an outer index leaves the
  // low corner, the rest of its slab is high band and is taken whole.
  const Shape& low = plan.final_low_extents();
  const NdSpan<double> v = out.view();
  const std::size_t r = view.shape.rank();
  const std::size_t low_row = low[r - 1];
  const std::size_t high_row = view.shape[r - 1] - low_row;
  const std::byte* low_src = view.low_band.data();
  double* dst = out.data();
  std::size_t pending = 0;  // high-band elements before the next low run
  std::array<std::size_t, kMaxRank> idx{};
  for (;;) {
    std::size_t ax = 0;  // first outer axis outside the low corner, else r - 1
    while (ax + 1 < r && idx[ax] < low[ax]) ++ax;
    if (ax + 1 == r) {
      high.take(dst, pending);
      dst += pending;
      kern.unpack_f64_le(low_src, low_row, dst);
      low_src += low_row * sizeof(double);
      dst += low_row;
      pending = high_row;
    } else {
      pending += v.stride(ax);  // idx[ax + 1..] are 0 here: the whole slab
    }
    // Step the odometer at axis ax (the last outer axis after a low row).
    std::size_t a = std::min(ax + 1, r - 1);
    bool done = true;
    while (a-- > 0) {
      if (++idx[a] < view.shape[a]) {
        done = false;
        break;
      }
      idx[a] = 0;
    }
    if (done) break;
  }
  high.take(dst, pending);
  return out;
}

NdArray<double> WaveletCompressor::decompress(std::span<const std::byte> data) {
  if (data.empty()) throw FormatError("empty compressed stream");
  WCK_TRACE_SPAN("decompress");
  WCK_COUNTER_ADD("decompress.calls", 1);
  WCK_COUNTER_ADD("decompress.bytes_in", data.size());
  const auto tag = static_cast<std::uint8_t>(data[0]);
  Bytes storage;
  std::span<const std::byte> payload;
  {
    WCK_STAGE("inflate", nullptr);
    payload = entropy_decode(tag, data.subspan(1), storage);
  }
  NdArray<double> work;
  PayloadView view;
  {
    WCK_STAGE("decode", nullptr);
    view = parse_payload(payload);
    work = decode_bands(view);
  }
  WCK_STAGE("wavelet_inverse", nullptr);
  haar_inverse(work.view(), view.levels);
  return work;
}

StreamInfo WaveletCompressor::inspect(std::span<const std::byte> data) {
  if (data.empty()) throw FormatError("empty compressed stream");
  const auto tag = static_cast<std::uint8_t>(data[0]);
  Bytes storage;
  const std::span<const std::byte> payload = entropy_decode(tag, data.subspan(1), storage);

  const PayloadView v = parse_payload(payload);
  StreamInfo info;
  info.shape = v.shape;
  info.levels = v.levels;
  info.quantizer = v.quantizer;
  info.entropy_tag = tag;
  info.averages_count = v.averages_count();
  info.high_count = v.high_count;
  info.quantized_count = v.indices.size();
  info.exact_count = v.exact_count();
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
