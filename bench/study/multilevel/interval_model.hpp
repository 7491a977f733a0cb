// Checkpoint-interval optimization models (Young / Daly) and strategy
// comparison under failures.
//
// The paper's closing future work: "optimizing checkpoint frequency by
// checkpointing model for lossy compression". These models answer the
// motivating question of the paper's introduction quantitatively: given
// an MTBF (projected to a few hours at exascale [4]) and a checkpoint
// cost C (which lossy compression shrinks by ~5x), how often should the
// application checkpoint and what fraction of the machine is wasted?
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace wck {

/// Young's optimal checkpoint interval sqrt(2 * C * MTBF).
[[nodiscard]] double young_interval(double checkpoint_seconds, double mtbf_seconds);

/// Daly's refined optimal interval sqrt(2 * C * (MTBF + R)) - C.
[[nodiscard]] double daly_interval(double checkpoint_seconds, double restart_seconds,
                                   double mtbf_seconds);

/// First-order machine efficiency (useful work / wall time) of periodic
/// checkpointing with interval tau under exponential failures:
///   waste ~= C/tau + tau/(2*MTBF) + R/MTBF
/// Clamped to [0, 1]. Valid in the usual regime tau << MTBF.
[[nodiscard]] double checkpoint_efficiency(double interval_seconds, double checkpoint_seconds,
                                           double restart_seconds, double mtbf_seconds);

/// The efficiency at the numerically optimal interval (golden-section
/// search over the model, more robust than the analytic formula when C
/// is not << MTBF).
struct OptimalInterval {
  double interval_seconds = 0.0;
  double efficiency = 0.0;
};
[[nodiscard]] OptimalInterval optimize_interval(double checkpoint_seconds,
                                                double restart_seconds, double mtbf_seconds);

/// One checkpointing strategy to compare (e.g. "no compression",
/// "gzip", "lossy n=128").
struct Strategy {
  std::string name;
  double checkpoint_seconds;
  double restart_seconds;
};

/// Efficiency of each strategy across a sweep of MTBFs. Rows are
/// (mtbf_seconds, vector of per-strategy OptimalInterval).
struct StrategySweepRow {
  double mtbf_seconds;
  std::vector<OptimalInterval> by_strategy;
};
[[nodiscard]] std::vector<StrategySweepRow> sweep_strategies(
    const std::vector<Strategy>& strategies, const std::vector<double>& mtbfs);

}  // namespace wck
