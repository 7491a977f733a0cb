// Tests for temporal (inter-checkpoint delta) compression.
#include <gtest/gtest.h>

#include "climate/mini_climate.hpp"
#include "stats/error_metrics.hpp"
#include "temporal/temporal.hpp"
#include "util/error.hpp"

namespace wck {
namespace {

TemporalParams params(std::size_t key_every = 8) {
  TemporalParams p;
  p.base.quantizer.divisions = 128;
  p.key_every = key_every;
  return p;
}

/// A short stream of genuinely evolving climate states.
std::vector<NdArray<double>> climate_stream(int count, int stride = 10) {
  ClimateConfig cfg;
  cfg.nx = 32;
  cfg.ny = 16;
  cfg.nz = 2;
  MiniClimate model(cfg);
  std::vector<NdArray<double>> states;
  for (int i = 0; i < count; ++i) {
    model.run(static_cast<std::uint64_t>(stride));
    states.push_back(model.temperature());
  }
  return states;
}

TEST(Temporal, FirstCheckpointIsKey) {
  const auto states = climate_stream(1);
  TemporalCompressor tc(params());
  const auto c = tc.add(states[0]);
  EXPECT_TRUE(c.is_key);
  EXPECT_EQ(c.sequence, 0u);
}

TEST(Temporal, DeltasAreMuchSmallerThanKeys) {
  const auto states = climate_stream(4);
  TemporalCompressor tc(params());
  const auto key = tc.add(states[0]);
  const auto d1 = tc.add(states[1]);
  const auto d2 = tc.add(states[2]);
  EXPECT_FALSE(d1.is_key);
  EXPECT_LT(d1.data.size(), key.data.size() * 7 / 10);
  EXPECT_LT(d2.data.size(), key.data.size() * 7 / 10);
}

TEST(Temporal, RestoreChainMatchesCompressorReconstruction) {
  const auto states = climate_stream(5);
  TemporalCompressor tc(params());
  std::vector<TemporalCheckpoint> chain;
  for (const auto& s : states) chain.push_back(tc.add(s));
  const auto restored = temporal_restore(chain);
  EXPECT_EQ(restored, tc.last_reconstruction());
}

TEST(Temporal, ErrorsDoNotAccumulateAcrossDeltas) {
  // The design property: every reconstruction is within one
  // quantization of the true state, regardless of chain position.
  const auto states = climate_stream(7);
  TemporalCompressor tc(params(/*key_every=*/100));  // one key, many deltas
  std::vector<TemporalCheckpoint> chain;
  double first_err = 0.0;
  double last_err = 0.0;
  for (std::size_t i = 0; i < states.size(); ++i) {
    chain.push_back(tc.add(states[i]));
    const auto err =
        relative_error(states[i].values(), tc.last_reconstruction().values());
    if (i == 0) first_err = err.mean_rel;
    last_err = err.mean_rel;
    EXPECT_LT(err.mean_rel_percent(), 0.5) << "i=" << i;
  }
  EXPECT_LT(last_err, first_err * 20.0 + 1e-6);  // same order, no blow-up
}

TEST(Temporal, KeyCadenceRespected) {
  const auto states = climate_stream(7, 5);
  TemporalCompressor tc(params(/*key_every=*/3));
  std::vector<bool> keys;
  for (const auto& s : states) keys.push_back(tc.add(s).is_key);
  EXPECT_EQ(keys, (std::vector<bool>{true, false, false, true, false, false, true}));
}

TEST(Temporal, ShapeChangeForcesKey) {
  TemporalCompressor tc(params(/*key_every=*/100));
  NdArray<double> a(Shape{8, 8}, 1.0);
  NdArray<double> b(Shape{4, 4}, 2.0);
  EXPECT_TRUE(tc.add(a).is_key);
  EXPECT_TRUE(tc.add(b).is_key);  // shape changed mid-stream
}

TEST(Temporal, ChainValidation) {
  const auto states = climate_stream(3);
  TemporalCompressor tc(params());
  const auto key = tc.add(states[0]);
  const auto delta = tc.add(states[1]);

  EXPECT_THROW((void)temporal_restore({}), InvalidArgumentError);
  std::vector<TemporalCheckpoint> starts_with_delta = {delta};
  EXPECT_THROW((void)temporal_restore(starts_with_delta), FormatError);
  std::vector<TemporalCheckpoint> key_mid_chain = {key, key};
  EXPECT_THROW((void)temporal_restore(key_mid_chain), FormatError);
}

TEST(Temporal, CorruptedRecordRejected) {
  const auto states = climate_stream(2);
  TemporalCompressor tc(params());
  auto key = tc.add(states[0]);
  auto delta = tc.add(states[1]);
  delta.data[delta.data.size() / 2] ^= std::byte{0x20};
  std::vector<TemporalCheckpoint> chain = {key, delta};
  EXPECT_THROW((void)temporal_restore(chain), Error);
}

TEST(Temporal, InvalidConfigRejected) {
  TemporalParams p = params();
  p.key_every = 0;
  EXPECT_THROW(TemporalCompressor{p}, InvalidArgumentError);
  TemporalCompressor tc(params());
  EXPECT_THROW((void)tc.last_reconstruction(), InvalidArgumentError);
}

}  // namespace
}  // namespace wck
