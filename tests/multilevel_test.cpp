// Tests for multi-level checkpointing and the interval-optimization
// models.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>

#include "core/synthetic.hpp"
#include "multilevel/interval_model.hpp"
#include "multilevel/multilevel.hpp"
#include "util/error.hpp"

namespace wck {
namespace {

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("wck_ml_" + std::to_string(::getpid()) + "_" + std::to_string(counter_++));
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

// ---------------- interval models ----------------

TEST(IntervalModel, YoungFormula) {
  EXPECT_DOUBLE_EQ(young_interval(10.0, 7200.0), std::sqrt(2.0 * 10.0 * 7200.0));
}

TEST(IntervalModel, DalyReducesToYoungWithoutRestart) {
  const double y = young_interval(10.0, 7200.0);
  const double d = daly_interval(10.0, 0.0, 7200.0);
  EXPECT_NEAR(d, y - 10.0, 1e-9);
}

TEST(IntervalModel, EfficiencyPeaksNearYoungInterval) {
  const double c = 10.0;
  const double mtbf = 7200.0;
  const double tau_star = young_interval(c, mtbf);
  const double at_opt = checkpoint_efficiency(tau_star, c, 0.0, mtbf);
  EXPECT_GT(at_opt, checkpoint_efficiency(tau_star / 4.0, c, 0.0, mtbf));
  EXPECT_GT(at_opt, checkpoint_efficiency(tau_star * 4.0, c, 0.0, mtbf));
}

TEST(IntervalModel, OptimizerMatchesAnalyticOptimum) {
  const double c = 10.0;
  const double mtbf = 7200.0;
  const auto opt = optimize_interval(c, 30.0, mtbf);
  // First-order model: the optimum is Young's interval regardless of R.
  EXPECT_NEAR(opt.interval_seconds, young_interval(c, mtbf), young_interval(c, mtbf) * 0.01);
  EXPECT_GT(opt.efficiency, 0.9);
}

TEST(IntervalModel, CheaperCheckpointsRaiseEfficiency) {
  // The paper's point: lossy compression cuts C ~5x, so the optimal
  // strategy both checkpoints more often and wastes less time.
  const double mtbf = 3600.0;  // "a few hours" projected exascale MTBF
  const auto raw = optimize_interval(50.0, 60.0, mtbf);
  const auto lossy = optimize_interval(10.0, 15.0, mtbf);
  EXPECT_GT(lossy.efficiency, raw.efficiency);
  EXPECT_LT(lossy.interval_seconds, raw.interval_seconds);
}

TEST(IntervalModel, EfficiencyDegradesAsMtbfShrinks) {
  double prev = 1.0;
  for (const double mtbf : {86400.0, 14400.0, 3600.0, 900.0}) {
    const auto opt = optimize_interval(20.0, 30.0, mtbf);
    EXPECT_LT(opt.efficiency, prev);
    prev = opt.efficiency;
  }
}

TEST(IntervalModel, SweepShapes) {
  const std::vector<Strategy> strategies = {{"raw", 50.0, 60.0}, {"lossy", 10.0, 15.0}};
  const auto rows = sweep_strategies(strategies, {3600.0, 7200.0});
  ASSERT_EQ(rows.size(), 2u);
  ASSERT_EQ(rows[0].by_strategy.size(), 2u);
  // Lossy strictly better at every MTBF.
  for (const auto& row : rows) {
    EXPECT_GT(row.by_strategy[1].efficiency, row.by_strategy[0].efficiency);
  }
}

TEST(IntervalModel, InvalidInputsRejected) {
  EXPECT_THROW((void)young_interval(0.0, 100.0), InvalidArgumentError);
  EXPECT_THROW((void)young_interval(1.0, 0.0), InvalidArgumentError);
  EXPECT_THROW((void)daly_interval(1.0, -1.0, 100.0), InvalidArgumentError);
  EXPECT_THROW((void)checkpoint_efficiency(0.0, 1.0, 0.0, 100.0), InvalidArgumentError);
}

// ---------------- multi-level checkpointing ----------------

struct App {
  NdArray<double> state = make_temperature_field(Shape{24, 12, 2}, 5);
  CheckpointRegistry registry;
  App() { registry.add("state", &state); }
};

TEST(MultiLevel, CadencesControlWrites) {
  TempDir dir;
  App app;
  const NullCodec codec;
  MultiLevelCheckpointer ml(
      {
          LevelSpec{"local", dir.path() / "l1", 1, 1},
          LevelSpec{"shared", dir.path() / "l2", 3, 2},
      },
      codec);

  // Opportunity 1: local only. Opportunity 3: both.
  auto w1 = ml.checkpoint(app.registry, 100);
  ASSERT_EQ(w1.size(), 1u);
  EXPECT_EQ(w1[0].level, "local");
  auto w2 = ml.checkpoint(app.registry, 200);
  EXPECT_EQ(w2.size(), 1u);
  auto w3 = ml.checkpoint(app.registry, 300);
  ASSERT_EQ(w3.size(), 2u);
  EXPECT_EQ(w3[1].level, "shared");
}

TEST(MultiLevel, MildFailureRestartsFromNewestLocal) {
  TempDir dir;
  App app;
  const NullCodec codec;
  MultiLevelCheckpointer ml(
      {
          LevelSpec{"local", dir.path() / "l1", 1, 1},
          LevelSpec{"shared", dir.path() / "l2", 3, 2},
      },
      codec);
  ml.checkpoint(app.registry, 100);
  ml.checkpoint(app.registry, 200);
  ml.checkpoint(app.registry, 300);  // shared also written here
  ml.checkpoint(app.registry, 400);  // local newest

  const auto r = ml.restart_after_failure(1, app.registry);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->level, "local");
  EXPECT_EQ(r->step, 400u);
}

TEST(MultiLevel, SevereFailureFallsBackToSharedLevel) {
  TempDir dir;
  App app;
  const NullCodec codec;
  MultiLevelCheckpointer ml(
      {
          LevelSpec{"local", dir.path() / "l1", 1, 1},
          LevelSpec{"shared", dir.path() / "l2", 3, 2},
      },
      codec);
  ml.checkpoint(app.registry, 100);
  ml.checkpoint(app.registry, 200);
  ml.checkpoint(app.registry, 300);
  ml.checkpoint(app.registry, 400);

  // Severity 2 (node loss): local checkpoints gone.
  const auto r = ml.restart_after_failure(2, app.registry);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->level, "shared");
  EXPECT_EQ(r->step, 300u);
  // Local level reports no checkpoint anymore.
  const auto latest = ml.latest_steps();
  EXPECT_FALSE(latest[0].second.has_value());
  EXPECT_TRUE(latest[1].second.has_value());
}

TEST(MultiLevel, CatastrophicFailureHasNoSurvivor) {
  TempDir dir;
  App app;
  const NullCodec codec;
  MultiLevelCheckpointer ml({LevelSpec{"local", dir.path() / "l1", 1, 1}}, codec);
  ml.checkpoint(app.registry, 100);
  EXPECT_FALSE(ml.restart_after_failure(3, app.registry).has_value());
}

TEST(MultiLevel, RestoredStateMatchesCheckpointedState) {
  TempDir dir;
  App app;
  const GzipCodec codec;
  MultiLevelCheckpointer ml({LevelSpec{"shared", dir.path() / "l2", 1, 9}}, codec);
  ml.checkpoint(app.registry, 1);
  const auto want = app.state;
  app.state = NdArray<double>(want.shape(), -1.0);  // diverge, then restore
  const auto r = ml.restart_after_failure(1, app.registry);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(app.state, want);
}

TEST(MultiLevel, KeepsOnlyNewestPerLevel) {
  TempDir dir;
  App app;
  const NullCodec codec;
  MultiLevelCheckpointer ml({LevelSpec{"local", dir.path() / "l1", 1, 1}}, codec);
  ml.checkpoint(app.registry, 1);
  ml.checkpoint(app.registry, 2);
  ml.checkpoint(app.registry, 3);
  std::size_t files = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator(dir.path() / "l1")) {
    ++files;
  }
  EXPECT_EQ(files, 1u);
}

TEST(MultiLevel, InvalidConfigurationRejected) {
  TempDir dir;
  const NullCodec codec;
  EXPECT_THROW(MultiLevelCheckpointer({}, codec), InvalidArgumentError);
  EXPECT_THROW(MultiLevelCheckpointer({LevelSpec{"x", dir.path(), 0, 1}}, codec),
               InvalidArgumentError);
  EXPECT_THROW(MultiLevelCheckpointer({LevelSpec{"", dir.path(), 1, 1}}, codec),
               InvalidArgumentError);
}

}  // namespace
}  // namespace wck
