#include "layers.hpp"

#include <zlib.h>

#include "deflate/deflate.hpp"
#include "deflate/huffman_only.hpp"
#include "deflate/parallel.hpp"
#include "encode/payload.hpp"
#include "wavelet/transform.hpp"

namespace pb {
namespace {

// StreamInfo::entropy_tag values (EntropyMode order; 4 = sharded WCKP).
constexpr std::uint8_t kTagZlib = 1;
constexpr std::uint8_t kTagGzip = 2;
constexpr std::uint8_t kTagHuffman = 3;
constexpr std::uint8_t kTagSharded = 4;

/// The entropy coder compress() used for a stream with `tag`, replayed
/// on `payload`; `known` is false for a tag with no replay.
wck::Bytes replay_deflate(std::uint8_t tag, std::span<const std::byte> payload,
                          const wck::CompressionParams& params, bool& known) {
  known = true;
  switch (tag) {
    case kTagZlib:
      return wck::zlib_compress(payload, wck::DeflateOptions{params.deflate_level});
    case kTagGzip:
      return wck::gzip_compress(payload, wck::DeflateOptions{params.deflate_level});
    case kTagHuffman:
      return wck::huffman_only_compress(payload);
    case kTagSharded:
      return wck::sharded_deflate_compress(
          payload, {params.deflate_level, params.deflate_block_size, 1});
    default:
      known = false;
      return {};
  }
}

wck::Bytes replay_inflate(std::uint8_t tag, std::span<const std::byte> body) {
  switch (tag) {
    case kTagZlib:
      return wck::zlib_decompress(body);
    case kTagGzip:
      return wck::gzip_decompress(body);
    case kTagHuffman:
      return wck::huffman_only_decompress(body);
    default:
      return wck::sharded_deflate_decompress(body, 1);
  }
}

/// Formatted payload of `x`: compress() with EntropyMode::kNone minus
/// its one-byte tag.
wck::Bytes formatted_payload(const wck::WaveletCompressor& none, const wck::NdArray<double>& x) {
  wck::CompressedArray c = none.compress(x);
  return wck::Bytes(c.data.begin() + 1, c.data.end());
}

/// Opens a root span for one replay group and makes it the parent of
/// the spans recorded until the returned id is closed.
std::uint64_t open_root(Tracer& tracer) {
  const std::uint64_t id = tracer.next_id();
  tracer.open(id);
  return id;
}

void close_root(Tracer& tracer, std::uint64_t id, const char* name, double t0, double a) {
  tracer.close();
  tracer.record(Span{id, 0, name, "", t0, now_s(), a, 0.0});
}

}  // namespace

std::string replay_layers(const OracleSet& oracles, const wck::CompressionParams& params,
                          int reps, const wck::NdArray<double>& probe,
                          const wck::NdArray<double>& calib, Tracer& tracer) {
  wck::CompressionParams none_params = params;
  none_params.entropy = wck::EntropyMode::kNone;
  const wck::WaveletCompressor none(none_params);
  const wck::WaveletCompressor full(params);

  for (int rep = 0; rep < reps; ++rep) {
    for (const Oracle& o : oracles.all()) {
      const double root_t0 = now_s();
      const std::uint64_t root = open_root(tracer);
      const auto bytes = static_cast<double>(o.input.size_bytes());
      const std::uint8_t tag = o.info.entropy_tag;
      const std::span<const std::byte> body = std::span<const std::byte>(o.stream).subspan(1);

      wck::NdArray<double> work = o.input;
      {
        ScopedSpan s(tracer, "replay.wavelet.fwd");
        wck::wavelet_forward(work.view(), params.wavelet, params.wavelet_levels);
        s.set_counts(bytes, 0.0);
      }
      {
        ScopedSpan s(tracer, "replay.wavelet.inv");
        wck::wavelet_inverse(work.view(), params.wavelet, params.wavelet_levels);
        s.set_counts(bytes, 0.0);
      }
      wck::CompressedArray formatted;
      {
        ScopedSpan s(tracer, "replay.compress.none");
        formatted = none.compress(o.input);
        s.set_counts(static_cast<double>(formatted.payload_bytes),
                     formatted.high_count == 0
                         ? 0.0
                         : static_cast<double>(formatted.quantized_count) /
                               static_cast<double>(formatted.high_count));
      }
      const std::span<const std::byte> payload =
          std::span<const std::byte>(formatted.data).subspan(1);
      if (payload.size() != o.info.payload_bytes) {
        return "formatted payload size differs from the stored stream's";
      }
      {
        ScopedSpan s(tracer, "replay.encode.decode");
        const wck::LossyPayload p = wck::decode_payload(payload);
        s.set_counts(static_cast<double>(payload.size()), static_cast<double>(p.indices.size()));
      }
      bool known = false;
      wck::Bytes replayed;
      {
        ScopedSpan s(tracer, "replay.deflate");
        replayed = replay_deflate(tag, payload, params, known);
        s.set_counts(static_cast<double>(payload.size()), static_cast<double>(replayed.size()));
      }
      if (!known) return "no replay for entropy tag " + std::to_string(tag);
      if (!std::equal(replayed.begin(), replayed.end(), body.begin(), body.end())) {
        return "replayed entropy stage (tag " + std::to_string(tag) +
               ") differs from the body compress() produced";
      }
      {
        ScopedSpan s(tracer, "replay.inflate");
        const wck::Bytes inflated = replay_inflate(tag, body);
        s.set_counts(static_cast<double>(body.size()), static_cast<double>(inflated.size()));
        if (!std::equal(inflated.begin(), inflated.end(), payload.begin(), payload.end())) {
          return "replayed inflate does not return the formatted payload";
        }
      }
      {
        ScopedSpan s(tracer, "replay.compress");
        const wck::CompressedArray c = full.compress(o.input);
        s.set_counts(bytes, static_cast<double>(c.data.size()));
        if (c.data != o.stream) return "compress() no longer reproduces the oracle stream";
      }
      {
        ScopedSpan s(tracer, "replay.decompress");
        const wck::NdArray<double> d = wck::WaveletCompressor::decompress(o.stream);
        s.set_counts(static_cast<double>(o.stream.size()), bytes);
        if (!same_bits(d, o.decoded)) return "decompress() no longer reproduces the oracle";
      }
      close_root(tracer, root, "replay.input", root_t0, bytes);
    }
  }

  // Per-call floor of the entropy stage on a 2 KB field's payload.
  {
    const wck::Bytes payload = formatted_payload(none, probe);
    const wck::Bytes stream = full.compress(probe).data;
    const std::uint8_t tag = wck::WaveletCompressor::inspect(stream).entropy_tag;
    const double t0 = now_s();
    const std::uint64_t root = open_root(tracer);
    for (int i = 0; i < 200; ++i) {
      ScopedSpan s(tracer, "replay.deflate.call");
      bool known = false;
      const wck::Bytes out = replay_deflate(tag, payload, params, known);
      s.set_counts(static_cast<double>(payload.size()), static_cast<double>(out.size()));
      if (!known) return "no replay for entropy tag " + std::to_string(tag);
    }
    close_root(tracer, root, "replay.probe", t0, static_cast<double>(probe.size_bytes()));
  }

  // System zlib, level 6, on the fig9 formatted payload: tells a slower
  // machine from a slower program.
  {
    const wck::Bytes payload = formatted_payload(none, calib);
    std::vector<Bytef> out(compressBound(static_cast<uLong>(payload.size())));
    const double t0 = now_s();
    const std::uint64_t root = open_root(tracer);
    for (int i = 0; i < 3; ++i) {
      ScopedSpan s(tracer, "calib.zlib");
      uLongf out_len = static_cast<uLongf>(out.size());
      if (compress2(out.data(), &out_len, reinterpret_cast<const Bytef*>(payload.data()),
                    static_cast<uLong>(payload.size()), 6) != Z_OK) {
        return "system zlib compress2 failed";
      }
      s.set_counts(static_cast<double>(payload.size()), static_cast<double>(out_len));
    }
    close_root(tracer, root, "replay.calib", t0, static_cast<double>(payload.size()));
  }
  return {};
}

}  // namespace pb
