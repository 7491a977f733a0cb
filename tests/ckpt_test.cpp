// Tests for checkpoint codecs, the registry, the file format, restart
// semantics and failure injection.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <span>
#include <string>
#include <utility>

#include "ckpt/checkpoint.hpp"
#include "ckpt/codec.hpp"
#include "core/synthetic.hpp"
#include "stats/error_metrics.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace wck {
namespace {

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("wck_test_" + std::to_string(::getpid()) + "_" + std::to_string(counter_++));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  [[nodiscard]] const std::filesystem::path& path() const noexcept { return path_; }

 private:
  static inline int counter_ = 0;
  std::filesystem::path path_;
};

TEST(Codecs, NullCodecRoundTripIsExact) {
  const auto field = make_temperature_field(Shape{16, 8, 4}, 1);
  const NullCodec codec;
  const Bytes data = codec.encode(field);
  EXPECT_EQ(codec.decode(data), field);
  EXPECT_FALSE(codec.lossy());
  // Raw representation: shape header + doubles.
  EXPECT_GE(data.size(), field.size_bytes());
}

TEST(Codecs, GzipCodecRoundTripIsExact) {
  const auto field = make_temperature_field(Shape{32, 16, 2}, 2);
  const GzipCodec codec;
  const Bytes data = codec.encode(field);
  EXPECT_EQ(codec.decode(data), field);
  EXPECT_FALSE(codec.lossy());
}

TEST(Codecs, GzipOnFloatingPointCompressesPoorly) {
  // The paper's Fig. 6 observation: lossless gzip on FP mesh data leaves
  // the bulk of the size (they measured ~87 %).
  const auto field = make_temperature_field(Shape{64, 32, 4}, 3);
  const GzipCodec codec;
  const Bytes data = codec.encode(field);
  const double rate =
      100.0 * static_cast<double>(data.size()) / static_cast<double>(field.size_bytes());
  EXPECT_GT(rate, 50.0);
}

TEST(Codecs, LossyCodecRoundTripsWithSmallError) {
  const auto field = make_temperature_field(Shape{64, 32, 4}, 4);
  CompressionParams params;
  params.quantizer.divisions = 128;
  const WaveletLossyCodec codec(params);
  EXPECT_TRUE(codec.lossy());
  const Bytes data = codec.encode(field);
  const auto back = codec.decode(data);
  const auto err = relative_error(field.values(), back.values());
  EXPECT_LT(err.mean_rel_percent(), 0.5);
  EXPECT_LT(data.size(), field.size_bytes() / 2);
}

TEST(Codecs, StageTimesAccumulated) {
  const auto field = make_temperature_field(Shape{64, 32, 4}, 5);
  const WaveletLossyCodec codec;
  StageTimes times;
  (void)codec.encode(field, &times);
  EXPECT_GT(times.get("wavelet"), 0.0);
  EXPECT_GT(times.get("quantize"), 0.0);
  EXPECT_GT(times.get("encode"), 0.0);
}

TEST(Codecs, DecoderRegistryResolvesNames) {
  for (const char* name : {"null", "gzip", "wavelet-lossy", "fpc", "truncation"}) {
    EXPECT_EQ(codec_for_decoding(name).name(), name);
  }
  for (const char* name : {"bzip2", "szlike", "zfplike"}) {
    EXPECT_THROW((void)codec_for_decoding(name), FormatError) << name;
  }
}

TEST(Codecs, EveryLossyCodecRoundTripsThroughCheckpoints) {
  const auto field = make_temperature_field(Shape{32, 16, 2}, 20);
  NdArray<double> state = field;
  CheckpointRegistry reg;
  reg.add("state", &state);
  const WaveletLossyCodec wavelet;
  const TruncationCodec truncation(20);
  for (const Codec* codec :
       {static_cast<const Codec*>(&wavelet), static_cast<const Codec*>(&truncation)}) {
    state = field;
    const Bytes data = serialize_checkpoint(reg, *codec, 1);
    state = NdArray<double>(field.shape(), 0.0);
    (void)restore_checkpoint(data, reg);
    const auto err = relative_error(field.values(), state.values());
    EXPECT_LT(err.mean_rel_percent(), 1.0) << codec->name();
  }
}

TEST(Registry, RejectsDuplicatesAndNulls) {
  NdArray<double> a(Shape{4});
  CheckpointRegistry reg;
  reg.add("a", &a);
  EXPECT_THROW(reg.add("a", &a), InvalidArgumentError);
  EXPECT_THROW(reg.add("b", nullptr), InvalidArgumentError);
  EXPECT_THROW(reg.add("", &a), InvalidArgumentError);
  EXPECT_EQ(reg.find("a"), &a);
  EXPECT_EQ(reg.find("missing"), nullptr);
  EXPECT_EQ(reg.total_bytes(), 4 * sizeof(double));
}

struct TwoFieldApp {
  NdArray<double> temp = make_temperature_field(Shape{24, 12, 2}, 7);
  NdArray<double> pressure = make_smooth_field(Shape{24, 12, 2}, 8);
  CheckpointRegistry registry;

  TwoFieldApp() {
    registry.add("temperature", &temp);
    registry.add("pressure", &pressure);
  }
};

TEST(Checkpoint, InMemoryRoundTripExactWithNullCodec) {
  TwoFieldApp app;
  CheckpointInfo winfo;
  const Bytes data = serialize_checkpoint(app.registry, NullCodec{}, 720, &winfo);
  EXPECT_EQ(winfo.step, 720u);
  EXPECT_EQ(winfo.field_count, 2u);
  EXPECT_EQ(winfo.original_bytes, app.registry.total_bytes());

  TwoFieldApp other;
  other.temp = NdArray<double>(app.temp.shape(), 0.0);
  other.pressure = NdArray<double>(app.pressure.shape(), 0.0);
  const CheckpointInfo rinfo = restore_checkpoint(data, other.registry);
  EXPECT_EQ(rinfo.step, 720u);
  EXPECT_EQ(other.temp, app.temp);
  EXPECT_EQ(other.pressure, app.pressure);
}

TEST(Checkpoint, LossyRoundTripBoundsError) {
  TwoFieldApp app;
  CompressionParams params;
  params.quantizer.divisions = 128;
  const Bytes data = serialize_checkpoint(app.registry, WaveletLossyCodec{params}, 1);

  TwoFieldApp other;
  (void)restore_checkpoint(data, other.registry);
  const auto terr = relative_error(app.temp.values(), other.temp.values());
  EXPECT_GT(terr.mean_rel, 0.0);  // lossy
  EXPECT_LT(terr.mean_rel_percent(), 1.0);
}

TEST(Checkpoint, CompressionRateReported) {
  TwoFieldApp app;
  CheckpointInfo info;
  (void)serialize_checkpoint(app.registry, WaveletLossyCodec{}, 1, &info);
  EXPECT_GT(info.compression_rate_percent(), 0.0);
  EXPECT_LT(info.compression_rate_percent(), 100.0);

  CheckpointInfo raw_info;
  (void)serialize_checkpoint(app.registry, NullCodec{}, 1, &raw_info);
  EXPECT_GE(raw_info.compression_rate_percent(), 100.0);
}

TEST(Checkpoint, FileRoundTrip) {
  TempDir dir;
  TwoFieldApp app;
  const auto path = dir.path() / "state.wck";
  const CheckpointInfo winfo = write_checkpoint(path, app.registry, GzipCodec{}, 42);
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_GT(winfo.stored_bytes, 0u);

  TwoFieldApp other;
  other.temp = NdArray<double>(app.temp.shape(), 0.0);
  const CheckpointInfo rinfo = read_checkpoint(path, other.registry);
  EXPECT_EQ(rinfo.step, 42u);
  EXPECT_EQ(other.temp, app.temp);
  EXPECT_EQ(other.pressure, app.pressure);
}

TEST(Checkpoint, MissingFileThrowsIoError) {
  TwoFieldApp app;
  EXPECT_THROW((void)read_checkpoint("/nonexistent/dir/x.wck", app.registry), IoError);
  EXPECT_THROW((void)write_checkpoint("/nonexistent/dir/x.wck", app.registry, NullCodec{}, 0),
               IoError);
}

TEST(Checkpoint, UnregisteredFieldRejected) {
  TwoFieldApp app;
  const Bytes data = serialize_checkpoint(app.registry, NullCodec{}, 1);
  CheckpointRegistry partial;
  NdArray<double> temp_only(app.temp.shape());
  partial.add("temperature", &temp_only);
  EXPECT_THROW((void)restore_checkpoint(data, partial), FormatError);
}

TEST(Checkpoint, ShapeMismatchRejected) {
  TwoFieldApp app;
  const Bytes data = serialize_checkpoint(app.registry, NullCodec{}, 1);
  CheckpointRegistry reg;
  NdArray<double> temp(Shape{3, 3});  // wrong shape, nonempty
  NdArray<double> pressure(app.pressure.shape());
  reg.add("temperature", &temp);
  reg.add("pressure", &pressure);
  EXPECT_THROW((void)restore_checkpoint(data, reg), FormatError);
}

TEST(Checkpoint, CorruptionDetectedAnywhere) {
  TwoFieldApp app;
  const Bytes data = serialize_checkpoint(app.registry, GzipCodec{}, 1);
  Xoshiro256 rng(11);
  for (int trial = 0; trial < 24; ++trial) {
    Bytes bad = data;
    bad[rng.bounded(bad.size())] ^= std::byte{0x08};
    TwoFieldApp other;
    EXPECT_THROW((void)restore_checkpoint(bad, other.registry), Error) << "trial " << trial;
  }
}

TEST(Checkpoint, TruncationDetected) {
  TwoFieldApp app;
  const Bytes data = serialize_checkpoint(app.registry, NullCodec{}, 1);
  for (const double frac : {0.1, 0.5, 0.95}) {
    Bytes cut(data.begin(),
              data.begin() + static_cast<std::ptrdiff_t>(static_cast<double>(data.size()) * frac));
    TwoFieldApp other;
    EXPECT_THROW((void)restore_checkpoint(cut, other.registry), Error);
  }
}

/// Stores raw doubles like NullCodec under another codec name, to write
/// checkpoints the decoder registry does not know.
class RenamedNullCodec final : public Codec {
 public:
  explicit RenamedNullCodec(std::string name) : name_(std::move(name)) {}
  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] bool lossy() const override { return false; }

 private:
  [[nodiscard]] Bytes do_encode(const NdArray<double>& array, StageTimes* times) const override {
    return NullCodec{}.encode(array, times);
  }
  [[nodiscard]] NdArray<double> do_decode(std::span<const std::byte> data) const override {
    return NullCodec{}.decode(data);
  }
  std::string name_;
};

TEST(Checkpoint, RetiredCodecNamesRejectedOnRestore) {
  // szlike and zfplike were checkpoint codecs once; a file naming them
  // is now refused as a format error and restores nothing.
  for (const char* name : {"szlike", "zfplike"}) {
    TwoFieldApp app;
    const Bytes data = serialize_checkpoint(app.registry, RenamedNullCodec(name), 1);
    TwoFieldApp other;
    other.temp = NdArray<double>(other.temp.shape(), 0.0);
    try {
      (void)restore_checkpoint(data, other.registry);
      ADD_FAILURE() << "codec " << name << " accepted";
    } catch (const FormatError& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << e.what();
    }
    EXPECT_EQ(other.temp, NdArray<double>(app.temp.shape(), 0.0)) << name;
  }
}

TEST(Checkpoint, MixedCodecsAcrossCheckpointsDecodable) {
  // A restart may read checkpoints written with different codecs over
  // the application's lifetime; the codec name travels with the file.
  TwoFieldApp app;
  const Bytes lossless = serialize_checkpoint(app.registry, GzipCodec{}, 1);
  const Bytes lossy = serialize_checkpoint(app.registry, WaveletLossyCodec{}, 2);
  TwoFieldApp other;
  EXPECT_EQ(restore_checkpoint(lossless, other.registry).step, 1u);
  EXPECT_EQ(restore_checkpoint(lossy, other.registry).step, 2u);
}

}  // namespace
}  // namespace wck
