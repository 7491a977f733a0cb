// Tests for incremental checkpointing (dirty-block deltas).
#include <gtest/gtest.h>

#include "core/synthetic.hpp"
#include "incremental/incremental.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace wck {
namespace {

struct App {
  NdArray<double> a = make_smooth_field(Shape{32, 32}, 1);
  NdArray<double> b = make_smooth_field(Shape{16, 16}, 2);
  CheckpointRegistry registry;
  App() {
    registry.add("a", &a);
    registry.add("b", &b);
  }
};

TEST(Image, GatherScatterRoundTrip) {
  App app;
  const Bytes image = gather_image(app.registry);
  App other;
  other.a = NdArray<double>(app.a.shape(), 0.0);
  other.b = NdArray<double>(app.b.shape(), 0.0);
  scatter_image(image, other.registry);
  EXPECT_EQ(other.a, app.a);
  EXPECT_EQ(other.b, app.b);
}

TEST(Image, UnknownFieldRejected) {
  App app;
  const Bytes image = gather_image(app.registry);
  CheckpointRegistry partial;
  NdArray<double> a(app.a.shape());
  partial.add("a", &a);
  EXPECT_THROW(scatter_image(image, partial), FormatError);
}

TEST(Incremental, FirstCheckpointIsFull) {
  App app;
  IncrementalCheckpointer inc(1024);
  const auto c = inc.checkpoint(app.registry, 10);
  EXPECT_TRUE(c.is_full);
  EXPECT_EQ(c.dirty_blocks, c.total_blocks);
  EXPECT_EQ(c.step, 10u);
}

TEST(Incremental, NoChangeYieldsEmptyDelta) {
  App app;
  IncrementalCheckpointer inc(1024);
  (void)inc.checkpoint(app.registry, 1);
  const auto c = inc.checkpoint(app.registry, 2);
  EXPECT_FALSE(c.is_full);
  EXPECT_EQ(c.dirty_blocks, 0u);
  // Delta with zero blocks is tiny.
  EXPECT_LT(c.data.size(), 64u);
}

TEST(Incremental, LocalizedChangeYieldsSmallDelta) {
  App app;
  IncrementalCheckpointer inc(512);
  (void)inc.checkpoint(app.registry, 1);
  app.a(3, 3) += 1.0;  // one block dirty (maybe two if straddling)
  const auto c = inc.checkpoint(app.registry, 2);
  EXPECT_FALSE(c.is_full);
  EXPECT_GE(c.dirty_blocks, 1u);
  EXPECT_LE(c.dirty_blocks, 2u);
  EXPECT_LT(c.data.size(), 4 * 512 + 64);
}

TEST(Incremental, FullImageChangeDirtiesEverything) {
  // The paper's argument against incremental checkpointing for CFD:
  // physical arrays update everywhere every step.
  App app;
  IncrementalCheckpointer inc(1024);
  (void)inc.checkpoint(app.registry, 1);
  for (auto& v : app.a.values()) v += 0.001;
  for (auto& v : app.b.values()) v += 0.001;
  const auto c = inc.checkpoint(app.registry, 2);
  EXPECT_FALSE(c.is_full);
  EXPECT_EQ(c.dirty_blocks, c.total_blocks);
  EXPECT_GE(c.data.size(), c.image_bytes);  // no saving at all
}

TEST(Incremental, RestoreChainReconstructsLatestState) {
  App app;
  IncrementalCheckpointer inc(512);
  std::vector<IncrementalCheckpoint> chain;
  chain.push_back(inc.checkpoint(app.registry, 1));

  Xoshiro256 rng(3);
  for (int step = 2; step <= 5; ++step) {
    // Mutate a few random cells.
    for (int k = 0; k < 5; ++k) {
      app.a[rng.bounded(app.a.size())] += 0.5;
    }
    chain.push_back(inc.checkpoint(app.registry, static_cast<std::uint64_t>(step)));
  }

  App restored;
  restored.a = NdArray<double>(app.a.shape(), 0.0);
  restored.b = NdArray<double>(app.b.shape(), 0.0);
  const CheckpointInfo info = IncrementalCheckpointer::restore_chain(chain, restored.registry);
  EXPECT_EQ(info.step, 5u);
  EXPECT_EQ(restored.a, app.a);
  EXPECT_EQ(restored.b, app.b);
}

TEST(Incremental, PeriodicFullCheckpointsCutChains) {
  App app;
  IncrementalCheckpointer inc(512, /*full_every=*/3);
  EXPECT_TRUE(inc.checkpoint(app.registry, 1).is_full);
  app.a(0, 0) += 1;
  EXPECT_FALSE(inc.checkpoint(app.registry, 2).is_full);
  app.a(0, 0) += 1;
  EXPECT_FALSE(inc.checkpoint(app.registry, 3).is_full);
  app.a(0, 0) += 1;
  EXPECT_TRUE(inc.checkpoint(app.registry, 4).is_full);  // F D D F pattern
  app.a(0, 0) += 1;
  EXPECT_FALSE(inc.checkpoint(app.registry, 5).is_full);
}

TEST(Incremental, ChainValidation) {
  App app;
  IncrementalCheckpointer inc(512);
  auto full = inc.checkpoint(app.registry, 1);
  app.a(0, 0) += 1;
  auto delta = inc.checkpoint(app.registry, 2);

  // Empty chain.
  EXPECT_THROW((void)IncrementalCheckpointer::restore_chain({}, app.registry),
               InvalidArgumentError);
  // Chain starting with a delta.
  std::vector<IncrementalCheckpoint> bad = {delta};
  EXPECT_THROW((void)IncrementalCheckpointer::restore_chain(bad, app.registry), FormatError);
  // Full record appearing mid-chain.
  std::vector<IncrementalCheckpoint> bad2 = {full, full};
  EXPECT_THROW((void)IncrementalCheckpointer::restore_chain(bad2, app.registry), FormatError);
}

TEST(Incremental, CorruptionDetectedByImageCrc) {
  App app;
  IncrementalCheckpointer inc(512);
  auto full = inc.checkpoint(app.registry, 1);
  app.a(5, 5) += 2.0;
  auto delta = inc.checkpoint(app.registry, 2);
  delta.data[delta.data.size() / 2] ^= std::byte{0x04};
  std::vector<IncrementalCheckpoint> chain = {full, delta};
  EXPECT_THROW((void)IncrementalCheckpointer::restore_chain(chain, app.registry), Error);
}

TEST(Incremental, InvalidConstructionRejected) {
  EXPECT_THROW(IncrementalCheckpointer(0, 1), InvalidArgumentError);
  EXPECT_THROW(IncrementalCheckpointer(512, 0), InvalidArgumentError);
}

}  // namespace
}  // namespace wck
