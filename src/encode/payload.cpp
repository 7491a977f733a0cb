#include "encode/payload.hpp"

#include <bit>
#include <cstring>
#include <string>

#include "util/checksum.hpp"
#include "util/error.hpp"

namespace wck {
namespace {

constexpr std::uint32_t kMagic = 0x4C4B4357;  // "WCKL" little-endian
constexpr std::uint8_t kVersion = 2;  // v2 added the wavelet-kind field

/// The next `count` elements of `width` bytes each, as a view. The count
/// is checked against the bytes left before it is multiplied, so a
/// corrupt header count can neither wrap nor size anything.
std::span<const std::byte> section(ByteReader& r, std::uint64_t count, std::size_t width) {
  if (count > r.remaining() / width) {
    throw FormatError("byte stream truncated: need " + std::to_string(count) + " x " +
                      std::to_string(width) + " bytes, have " + std::to_string(r.remaining()));
  }
  return r.raw(count * width);
}

/// Set bits among the first `n` bits of a little-endian bitmap; the
/// padding bits of its last byte are masked off.
std::uint64_t popcount_bits(std::span<const std::byte> bytes, std::uint64_t n) {
  std::uint64_t count = 0;
  std::size_t b = 0;
  for (; b + 8 <= n / 8; b += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, bytes.data() + b, 8);  // byte order does not change a popcount
    count += static_cast<std::uint64_t>(std::popcount(w));
  }
  for (; b < bytes.size(); ++b) {
    unsigned v = static_cast<std::uint8_t>(bytes[b]);
    if (b == n / 8) v &= (1u << (n % 8)) - 1u;  // the partial last byte
    count += static_cast<std::uint64_t>(std::popcount(v));
  }
  return count;
}

/// Little-endian doubles -> owned vector.
std::vector<double> f64_vector(std::span<const std::byte> bytes) {
  std::vector<double> out(bytes.size() / sizeof(double));
  ByteReader(bytes).f64_array(out);
  return out;
}

}  // namespace

Bytes encode_payload(const LossyPayload& p) {
  if (p.indices.size() != p.quantized.count()) {
    throw InvalidArgumentError("payload: index count does not match bitmap population");
  }
  if (p.exact_values.size() != p.quantized.size() - p.quantized.count()) {
    throw InvalidArgumentError("payload: exact-value count does not match bitmap");
  }
  if (p.averages.size() > 256) {
    throw InvalidArgumentError("payload: averages table exceeds 256 entries");
  }

  ByteWriter w;
  w.u32(kMagic);
  w.u8(kVersion);
  w.u8(static_cast<std::uint8_t>(p.quantizer));
  w.u8(static_cast<std::uint8_t>(p.wavelet));
  w.u8(static_cast<std::uint8_t>(p.shape.rank()));
  w.u8(static_cast<std::uint8_t>(p.levels));
  for (std::size_t a = 0; a < p.shape.rank(); ++a) w.varint(p.shape[a]);
  w.varint(p.averages.size());
  w.varint(p.low_band.size());
  w.varint(p.quantized.size());
  w.varint(p.indices.size());

  w.f64_array(p.averages);
  w.f64_array(p.low_band);
  p.quantized.serialize_to(w.buffer());
  w.raw(p.indices.data(), p.indices.size());
  w.f64_array(p.exact_values);

  // Trailing CRC over everything before it.
  const std::uint32_t crc = crc32(std::span<const std::byte>(w.buffer()));
  w.u32(crc);
  return w.take();
}

PayloadView parse_payload(std::span<const std::byte> data) {
  if (data.size() < 4) throw FormatError("payload truncated before CRC");
  {
    ByteReader tail(data.subspan(data.size() - 4));
    const std::uint32_t want = tail.u32();
    const std::uint32_t got = crc32(data.subspan(0, data.size() - 4));
    if (want != got) throw CorruptDataError("payload CRC-32 mismatch");
  }

  ByteReader r(data.subspan(0, data.size() - 4));
  if (r.u32() != kMagic) throw FormatError("payload: bad magic");
  const std::uint8_t version = r.u8();
  if (version != kVersion) {
    throw FormatError("payload: unsupported version " + std::to_string(version));
  }

  PayloadView v;
  const std::uint8_t kind = r.u8();
  if (kind > 1) throw FormatError("payload: unknown quantizer kind");
  v.quantizer = static_cast<QuantizerKind>(kind);
  const std::uint8_t wkind = r.u8();
  if (wkind > 2) throw FormatError("payload: unknown wavelet kind");
  v.wavelet = static_cast<WaveletKind>(wkind);
  const std::uint8_t rank = r.u8();
  if (rank < 1 || rank > kMaxRank) throw FormatError("payload: invalid rank");
  v.levels = r.u8();
  if (v.levels < 1) throw FormatError("payload: invalid transform depth");
  v.shape = Shape::of_rank(rank);
  std::uint64_t size = 1;
  for (std::size_t a = 0; a < rank; ++a) {
    v.shape[a] = r.varint();
    if (v.shape[a] == 0) throw FormatError("payload: zero extent");
    if (__builtin_mul_overflow(size, v.shape[a], &size)) {
      throw FormatError("payload: array size overflows");
    }
  }

  const std::uint64_t n_avg = r.varint();
  const std::uint64_t n_low = r.varint();
  const std::uint64_t n_high = r.varint();
  const std::uint64_t n_idx = r.varint();
  if (n_avg > 256) throw FormatError("payload: averages table exceeds 256 entries");
  if (n_high > size || n_low != size - n_high) {
    throw FormatError("payload: band sizes do not sum to array size");
  }
  if (n_idx > n_high) throw FormatError("payload: more indexes than high-band elements");

  v.averages = section(r, n_avg, sizeof(double));
  v.low_band = section(r, n_low, sizeof(double));
  v.bitmap = section(r, n_high / 8 + (n_high % 8 != 0 ? 1 : 0), 1);
  v.high_count = n_high;
  if (popcount_bits(v.bitmap, n_high) != n_idx) {
    throw FormatError("payload: bitmap population does not match index count");
  }
  const auto idx_bytes = section(r, n_idx, 1);
  v.indices = {reinterpret_cast<const std::uint8_t*>(idx_bytes.data()), idx_bytes.size()};
  std::uint8_t max_index = 0;
  for (const std::uint8_t i : v.indices) max_index = i > max_index ? i : max_index;
  if (!v.indices.empty() && max_index >= n_avg) {
    throw FormatError("payload: index beyond averages table");
  }
  v.exact_values = section(r, n_high - n_idx, sizeof(double));
  if (!r.exhausted()) throw FormatError("payload: trailing bytes");
  return v;
}

LossyPayload decode_payload(std::span<const std::byte> data) {
  const PayloadView v = parse_payload(data);
  LossyPayload p;
  p.shape = v.shape;
  p.levels = v.levels;
  p.wavelet = v.wavelet;
  p.quantizer = v.quantizer;
  p.averages = f64_vector(v.averages);
  p.low_band = f64_vector(v.low_band);
  p.quantized = Bitmap::deserialize(v.bitmap, v.high_count);
  p.indices.assign(v.indices.begin(), v.indices.end());
  p.exact_values = f64_vector(v.exact_values);
  return p;
}

}  // namespace wck
