#include "temporal/temporal.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace wck {
namespace {

constexpr std::uint8_t kKindKey = 0xD1;
constexpr std::uint8_t kKindDelta = 0xD2;

}  // namespace

TemporalCompressor::TemporalCompressor(TemporalParams params)
    : params_(params), key_compressor_(params.base), delta_compressor_(params.base) {
  if (params.key_every == 0) {
    throw InvalidArgumentError("temporal: key_every must be >= 1");
  }
}

TemporalCheckpoint TemporalCompressor::add(const NdArray<double>& state) {
  TemporalCheckpoint out;
  out.sequence = sequence_;
  out.original_bytes = state.size_bytes();

  const bool key = !recon_.has_value() || sequence_ % params_.key_every == 0 ||
                   recon_->shape() != state.shape();
  if (key) {
    CompressedArray comp = key_compressor_.compress(state);
    recon_ = WaveletCompressor::decompress(comp.data);
    out.is_key = true;
    out.data.reserve(comp.data.size() + 1);
    out.data.push_back(static_cast<std::byte>(kKindKey));
    out.data.insert(out.data.end(), comp.data.begin(), comp.data.end());
  } else {
    // Delta against our own reconstruction: errors never compound.
    NdArray<double> delta(state.shape());
    double state_lo = state[0];
    double state_hi = state[0];
    double delta_lo = 0.0;
    double delta_hi = 0.0;
    for (std::size_t i = 0; i < state.size(); ++i) {
      delta[i] = state[i] - (*recon_)[i];
      state_lo = std::min(state_lo, state[i]);
      state_hi = std::max(state_hi, state[i]);
      delta_lo = std::min(delta_lo, delta[i]);
      delta_hi = std::max(delta_hi, delta[i]);
    }
    // Hold the *absolute* quantization step at the key checkpoint's
    // level: a delta spanning 1/k of the state's range needs only n/k
    // divisions for the same absolute error — that is where the size
    // win over independent compression comes from.
    const double state_range = state_hi - state_lo;
    const double delta_range = delta_hi - delta_lo;
    CompressionParams delta_params = params_.base;
    if (state_range > 0.0 && delta_range > 0.0) {
      const double scaled = static_cast<double>(params_.base.quantizer.divisions) *
                            delta_range / state_range;
      delta_params.quantizer.divisions =
          std::clamp(static_cast<int>(std::ceil(scaled)), 1, 256);
    }
    // Deltas use the *simple* quantizer: with the absolute step pinned,
    // every value's error is bounded by one cell width, so the spike
    // detector's exact-value escape hatch (the size floor of the
    // proposed method) buys nothing here.
    delta_params.quantizer.kind = QuantizerKind::kSimple;
    const WaveletCompressor scaled_compressor(delta_params);
    CompressedArray comp = scaled_compressor.compress(delta);
    const NdArray<double> delta_rec = WaveletCompressor::decompress(comp.data);
    for (std::size_t i = 0; i < state.size(); ++i) (*recon_)[i] += delta_rec[i];
    out.is_key = false;
    out.data.reserve(comp.data.size() + 1);
    out.data.push_back(static_cast<std::byte>(kKindDelta));
    out.data.insert(out.data.end(), comp.data.begin(), comp.data.end());
  }
  ++sequence_;
  return out;
}

const NdArray<double>& TemporalCompressor::last_reconstruction() const {
  if (!recon_.has_value()) {
    throw InvalidArgumentError("temporal: no checkpoint added yet");
  }
  return *recon_;
}

NdArray<double> temporal_restore(std::span<const TemporalCheckpoint> chain) {
  if (chain.empty()) throw InvalidArgumentError("temporal: empty restore chain");

  NdArray<double> recon;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const Bytes& data = chain[i].data;
    if (data.empty()) throw FormatError("temporal: empty record");
    const auto kind = static_cast<std::uint8_t>(data[0]);
    const auto body = std::span(data).subspan(1);
    if (kind == kKindKey) {
      if (i != 0) throw FormatError("temporal: key checkpoint after start of chain");
      recon = WaveletCompressor::decompress(body);
    } else if (kind == kKindDelta) {
      if (i == 0) throw FormatError("temporal: chain must start with a key checkpoint");
      const NdArray<double> delta = WaveletCompressor::decompress(body);
      if (delta.shape() != recon.shape()) {
        throw FormatError("temporal: delta shape mismatch");
      }
      for (std::size_t j = 0; j < recon.size(); ++j) recon[j] += delta[j];
    } else {
      throw FormatError("temporal: unknown record kind");
    }
  }
  return recon;
}

}  // namespace wck
