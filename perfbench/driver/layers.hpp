// Layer replays for the traced run: each layer's public entry point is
// called on the workload's own inputs and timed from outside, under a
// "replay.input" root span per input and repetition.
#pragma once

#include <string>

#include "core/compressor.hpp"
#include "instrument.hpp"

namespace pb {

/// Replays wavelet, quantize+encode (compress with EntropyMode::kNone),
/// the entropy stage chosen by each stream's entropy tag, the payload
/// decoder, compress and decompress, `reps` times over every oracle; the
/// per-call deflate floor on `probe` (a 2 KB tile); and system zlib on
/// the fig9 payload of `calib` as machine calibration. Returns an empty
/// string, or why a replay diverged from the bytes compress() produced.
[[nodiscard]] std::string replay_layers(const OracleSet& oracles,
                                        const wck::CompressionParams& params, int reps,
                                        const wck::NdArray<double>& probe,
                                        const wck::NdArray<double>& calib, Tracer& tracer);

}  // namespace pb
