// Tests for the mantissa-truncation lossy baseline.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "core/synthetic.hpp"
#include "stats/error_metrics.hpp"
#include "truncation/truncation.hpp"
#include "util/error.hpp"

namespace wck {
namespace {

TEST(Truncation, Keep52IsIdentity) {
  auto field = make_smooth_field(Shape{32, 32}, 1);
  const auto orig = field;
  truncate_mantissa(field.values(), 52);
  EXPECT_EQ(field, orig);
}

TEST(Truncation, RelativeErrorBounded) {
  // Dropping (52 - k) mantissa bits bounds the pointwise relative error
  // by 2^-k (truncation toward zero in magnitude).
  auto field = make_temperature_field(Shape{64, 32, 2}, 2);
  const auto orig = field;
  const int keep = 20;
  truncate_mantissa(field.values(), keep);
  const double bound = std::pow(2.0, -keep);
  for (std::size_t i = 0; i < field.size(); ++i) {
    const double rel = std::abs(field[i] - orig[i]) / std::abs(orig[i]);
    EXPECT_LE(rel, bound) << "i=" << i;
  }
}

TEST(Truncation, LowBitsActuallyZeroed) {
  auto field = make_smooth_field(Shape{16, 16}, 3);
  truncate_mantissa(field.values(), 12);
  const std::uint64_t low_mask = (std::uint64_t{1} << 40) - 1;  // 52-12 bits
  for (const double v : field.values()) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(v) & low_mask, 0u);
  }
}

TEST(Truncation, CompressDecompressRoundTrip) {
  const auto field = make_temperature_field(Shape{48, 24, 2}, 4);
  const Bytes data = truncation_compress(field, 16);
  const auto back = truncation_decompress(data);
  EXPECT_EQ(back.shape(), field.shape());
  // Decompress returns exactly the truncated values.
  auto truncated = field;
  truncate_mantissa(truncated.values(), 16);
  EXPECT_EQ(back, truncated);
}

TEST(Truncation, CodecMatchesTheFreeFunctions) {
  // TruncationCodec is how the benches time the baseline next to the
  // system codecs; its bytes are truncation_compress's.
  const auto field = make_temperature_field(Shape{48, 24, 2}, 4);
  const TruncationCodec codec(16);
  EXPECT_EQ(codec.name(), "truncation");
  EXPECT_TRUE(codec.lossy());
  StageTimes times;
  const Bytes data = codec.encode(field, &times);
  EXPECT_EQ(data, truncation_compress(field, 16));
  EXPECT_GT(times.get("truncation"), 0.0);
  EXPECT_EQ(codec.decode(data), truncation_decompress(data));
}

TEST(Truncation, FewerBitsCompressBetter) {
  const auto field = make_temperature_field(Shape{64, 32, 2}, 5);
  std::size_t prev = 0;
  for (const int keep : {40, 24, 8}) {
    const auto size = truncation_compress(field, keep).size();
    if (prev != 0) {
      EXPECT_LT(size, prev) << "keep=" << keep;
    }
    prev = size;
  }
}

TEST(Truncation, ErrorVsSizeTradeoffMonotone) {
  const auto field = make_temperature_field(Shape{64, 32, 2}, 6);
  double prev_err = -1.0;
  for (const int keep : {36, 24, 12}) {
    const auto back = truncation_decompress(truncation_compress(field, keep));
    const auto err = relative_error(field.values(), back.values());
    EXPECT_GT(err.mean_rel, prev_err) << "keep=" << keep;
    prev_err = err.mean_rel;
  }
}

TEST(Truncation, InvalidArgumentsRejected) {
  const auto field = make_smooth_field(Shape{8}, 7);
  EXPECT_THROW((void)truncation_compress(field, -1), InvalidArgumentError);
  EXPECT_THROW((void)truncation_compress(field, 53), InvalidArgumentError);
}

TEST(Truncation, MalformedStreamRejected) {
  Bytes junk(32, std::byte{0x11});
  EXPECT_THROW((void)truncation_decompress(junk), Error);
  EXPECT_THROW((void)truncation_decompress({}), Error);
}

}  // namespace
}  // namespace wck
