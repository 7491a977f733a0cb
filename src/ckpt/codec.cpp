#include "ckpt/codec.hpp"

#include <string>

#include "deflate/deflate.hpp"
#include "fpc/fpc.hpp"
#include "util/error.hpp"

namespace wck {
namespace {

/// Shared raw representation: rank, extents, then little-endian doubles.
Bytes serialize_raw(const NdArray<double>& array) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(array.rank()));
  for (std::size_t a = 0; a < array.rank(); ++a) w.varint(array.extent(a));
  w.f64_array(array.values());
  return w.take();
}

NdArray<double> parse_raw(std::span<const std::byte> data) {
  ByteReader r(data);
  const std::uint8_t rank = r.u8();
  if (rank < 1 || rank > kMaxRank) throw FormatError("raw array: invalid rank");
  Shape shape = Shape::of_rank(rank);
  for (std::size_t a = 0; a < rank; ++a) {
    shape[a] = r.varint();
    if (shape[a] == 0) throw FormatError("raw array: zero extent");
  }
  NdArray<double> out(shape);
  r.f64_array(out.values());
  if (!r.exhausted()) throw FormatError("raw array: trailing bytes");
  return out;
}

}  // namespace

Bytes NullCodec::do_encode(const NdArray<double>& array, StageTimes* times) const {
  WCK_STAGE("other", times);
  return serialize_raw(array);
}

NdArray<double> NullCodec::do_decode(std::span<const std::byte> data) const {
  return parse_raw(data);
}

Bytes GzipCodec::do_encode(const NdArray<double>& array, StageTimes* times) const {
  Bytes raw;
  {
    WCK_STAGE("other", times);
    raw = serialize_raw(array);
  }
  WCK_STAGE("deflate", times);
  return gzip_compress(raw, DeflateOptions{level_});
}

NdArray<double> GzipCodec::do_decode(std::span<const std::byte> data) const {
  return parse_raw(gzip_decompress(data));
}

Bytes WaveletLossyCodec::do_encode(const NdArray<double>& array, StageTimes* times) const {
  CompressedArray comp = compressor_.compress(array);
  if (times != nullptr) times->merge(comp.times);
  return std::move(comp.data);
}

NdArray<double> WaveletLossyCodec::do_decode(std::span<const std::byte> data) const {
  return WaveletCompressor::decompress(data);
}

Bytes FpcCodec::do_encode(const NdArray<double>& array, StageTimes* times) const {
  WCK_STAGE("fpc", times);
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(array.rank()));
  for (std::size_t a = 0; a < array.rank(); ++a) w.varint(array.extent(a));
  const Bytes body = fpc_compress(array.values(), FpcOptions{table_log2_});
  w.raw(body.data(), body.size());
  return w.take();
}

NdArray<double> FpcCodec::do_decode(std::span<const std::byte> data) const {
  ByteReader r(data);
  const std::uint8_t rank = r.u8();
  if (rank < 1 || rank > kMaxRank) throw FormatError("fpc codec: invalid rank");
  Shape shape = Shape::of_rank(rank);
  for (std::size_t a = 0; a < rank; ++a) shape[a] = r.varint();
  std::vector<double> values = fpc_decompress(data.subspan(r.position()));
  return NdArray<double>(shape, std::move(values));
}

const Codec& codec_for_decoding(std::string_view name) {
  static const NullCodec kNull;
  static const GzipCodec kGzip;
  static const WaveletLossyCodec kLossy;
  static const FpcCodec kFpc;
  if (name == "null") return kNull;
  if (name == "gzip") return kGzip;
  if (name == "wavelet-lossy") return kLossy;
  if (name == "fpc") return kFpc;
  throw FormatError("unknown checkpoint codec: " + std::string(name));
}

}  // namespace wck
