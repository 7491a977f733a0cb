#include "truncation/truncation.hpp"

#include <bit>

#include "deflate/deflate.hpp"
#include "util/error.hpp"

namespace wck {
namespace {

constexpr std::uint32_t kMagic = 0x54524B57;  // "WKRT" little-endian

void check_bits(int keep) {
  if (keep < 0 || keep > 52) {
    throw InvalidArgumentError("keep_mantissa_bits must be in 0..52");
  }
}

}  // namespace

void truncate_mantissa(std::span<double> values, int keep_mantissa_bits) {
  check_bits(keep_mantissa_bits);
  const int drop = 52 - keep_mantissa_bits;
  if (drop == 0) return;
  const std::uint64_t mask = ~((std::uint64_t{1} << drop) - 1);
  for (double& v : values) {
    v = std::bit_cast<double>(std::bit_cast<std::uint64_t>(v) & mask);
  }
}

Bytes truncation_compress(const NdArray<double>& array, int keep_mantissa_bits,
                          int deflate_level) {
  check_bits(keep_mantissa_bits);
  NdArray<double> work = array;
  truncate_mantissa(work.values(), keep_mantissa_bits);

  ByteWriter raw;
  raw.u8(static_cast<std::uint8_t>(array.rank()));
  for (std::size_t a = 0; a < array.rank(); ++a) raw.varint(array.extent(a));
  raw.f64_array(work.values());

  ByteWriter w;
  w.u32(kMagic);
  w.u8(static_cast<std::uint8_t>(keep_mantissa_bits));
  const Bytes body = zlib_compress(raw.buffer(), DeflateOptions{deflate_level});
  w.raw(body.data(), body.size());
  return w.take();
}

NdArray<double> truncation_decompress(std::span<const std::byte> data) {
  ByteReader r(data);
  if (r.u32() != kMagic) throw FormatError("truncation: bad magic");
  const int keep = r.u8();
  check_bits(keep);
  const Bytes raw = zlib_decompress(data.subspan(r.position()));

  ByteReader rr(raw);
  const std::uint8_t rank = rr.u8();
  if (rank < 1 || rank > kMaxRank) throw FormatError("truncation: invalid rank");
  Shape shape = Shape::of_rank(rank);
  for (std::size_t a = 0; a < rank; ++a) shape[a] = rr.varint();
  NdArray<double> out(shape);
  rr.f64_array(out.values());
  if (!rr.exhausted()) throw FormatError("truncation: trailing bytes");
  return out;
}

Bytes TruncationCodec::do_encode(const NdArray<double>& array, StageTimes* times) const {
  WCK_STAGE("truncation", times);
  return truncation_compress(array, keep_, level_);
}

NdArray<double> TruncationCodec::do_decode(std::span<const std::byte> data) const {
  return truncation_decompress(data);
}

}  // namespace wck
