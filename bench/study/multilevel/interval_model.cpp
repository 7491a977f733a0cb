#include "multilevel/interval_model.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace wck {
namespace {

void check_positive(double v, const char* what) {
  if (!(v > 0.0)) throw InvalidArgumentError(std::string(what) + " must be positive");
}

}  // namespace

double young_interval(double checkpoint_seconds, double mtbf_seconds) {
  check_positive(checkpoint_seconds, "checkpoint time");
  check_positive(mtbf_seconds, "MTBF");
  return std::sqrt(2.0 * checkpoint_seconds * mtbf_seconds);
}

double daly_interval(double checkpoint_seconds, double restart_seconds, double mtbf_seconds) {
  check_positive(checkpoint_seconds, "checkpoint time");
  check_positive(mtbf_seconds, "MTBF");
  if (restart_seconds < 0.0) throw InvalidArgumentError("restart time must be >= 0");
  return std::sqrt(2.0 * checkpoint_seconds * (mtbf_seconds + restart_seconds)) -
         checkpoint_seconds;
}

double checkpoint_efficiency(double interval_seconds, double checkpoint_seconds,
                             double restart_seconds, double mtbf_seconds) {
  check_positive(interval_seconds, "interval");
  check_positive(checkpoint_seconds, "checkpoint time");
  check_positive(mtbf_seconds, "MTBF");
  if (restart_seconds < 0.0) throw InvalidArgumentError("restart time must be >= 0");
  const double waste = checkpoint_seconds / interval_seconds +
                       interval_seconds / (2.0 * mtbf_seconds) +
                       restart_seconds / mtbf_seconds;
  return std::clamp(1.0 - waste, 0.0, 1.0);
}

OptimalInterval optimize_interval(double checkpoint_seconds, double restart_seconds,
                                  double mtbf_seconds) {
  check_positive(checkpoint_seconds, "checkpoint time");
  check_positive(mtbf_seconds, "MTBF");
  // Golden-section maximization of efficiency over a generous bracket.
  const double phi = (std::sqrt(5.0) - 1.0) / 2.0;
  double lo = checkpoint_seconds * 1e-3;
  double hi = mtbf_seconds * 4.0;
  double a = hi - phi * (hi - lo);
  double b = lo + phi * (hi - lo);
  auto eff = [&](double tau) {
    return checkpoint_efficiency(tau, checkpoint_seconds, restart_seconds, mtbf_seconds);
  };
  double fa = eff(a);
  double fb = eff(b);
  for (int iter = 0; iter < 200 && (hi - lo) > 1e-9 * hi; ++iter) {
    if (fa < fb) {
      lo = a;
      a = b;
      fa = fb;
      b = lo + phi * (hi - lo);
      fb = eff(b);
    } else {
      hi = b;
      b = a;
      fb = fa;
      a = hi - phi * (hi - lo);
      fa = eff(a);
    }
  }
  const double tau = (lo + hi) / 2.0;
  return OptimalInterval{tau, eff(tau)};
}

std::vector<StrategySweepRow> sweep_strategies(const std::vector<Strategy>& strategies,
                                               const std::vector<double>& mtbfs) {
  std::vector<StrategySweepRow> rows;
  rows.reserve(mtbfs.size());
  for (const double mtbf : mtbfs) {
    StrategySweepRow row;
    row.mtbf_seconds = mtbf;
    for (const Strategy& s : strategies) {
      row.by_strategy.push_back(optimize_interval(s.checkpoint_seconds, s.restart_seconds, mtbf));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace wck
