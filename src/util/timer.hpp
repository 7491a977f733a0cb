// Wall-clock timing utilities used by the benchmark harnesses and by the
// compression pipeline's per-stage instrumentation (paper Fig. 9 reports
// a stage-by-stage breakdown of compression time).
//
// Stage is the one primitive that times a pipeline stage: a single pair
// of clock reads per scope feeds the trace span, the stage's
// "stage.<name>.seconds" histogram (which RunReport turns into
// stages_seconds) and, when given one, a StageTimes. StageTimes itself
// is a plain accumulator and writes no telemetry.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace wck {

/// A simple monotonic wall-clock stopwatch measuring seconds.
class WallTimer {
 public:
  WallTimer() noexcept : start_(Clock::now()) {}

  void restart() noexcept { start_ = Clock::now(); }

  /// Seconds elapsed since construction / last restart().
  [[nodiscard]] double seconds() const noexcept {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Accumulates named stage durations, e.g. {"wavelet": 1.2e-3, ...}.
class StageTimes {
 public:
  void add(const std::string& stage, double seconds) { seconds_[stage] += seconds; }

  [[nodiscard]] double get(const std::string& stage) const noexcept {
    const auto it = seconds_.find(stage);
    return it == seconds_.end() ? 0.0 : it->second;
  }

  [[nodiscard]] double total() const noexcept {
    double t = 0.0;
    for (const auto& [_, s] : seconds_) t += s;
    return t;
  }

  [[nodiscard]] const std::map<std::string, double>& by_stage() const noexcept {
    return seconds_;
  }

  /// Merges another accumulation into this one.
  void merge(const StageTimes& other) {
    for (const auto& [k, v] : other.by_stage()) seconds_[k] += v;
  }

  void clear() noexcept { seconds_.clear(); }

 private:
  std::map<std::string, double> seconds_;
};

/// RAII stage timer. Reads the clock once on entry and once on exit;
/// that interval is recorded into `times` (when non-null) and, when
/// `histogram` is non-null (telemetry on), into it and as a trace span.
/// Use it through WCK_STAGE, which resolves the histogram once per call
/// site.
class Stage {
 public:
  Stage(const char* name, telemetry::Histogram* histogram, StageTimes* times);
  ~Stage();

  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

 private:
  const char* name_;
  telemetry::Histogram* histogram_;
  StageTimes* times_;
  std::uint32_t depth_ = 0;
  double start_us_ = 0.0;
};

}  // namespace wck

/// Times the enclosing scope as stage `name` (a string literal) into
/// the "stage.<name>.seconds" histogram, a trace span and the
/// StageTimes* `times` (may be nullptr).
#define WCK_STAGE(name, times)                                                                \
  ::wck::Stage WCK_TRACE_CONCAT(wck_stage_, __LINE__)(                                        \
      name,                                                                                   \
      ::wck::telemetry::enabled() ? &[]() -> ::wck::telemetry::Histogram& {                   \
        static ::wck::telemetry::Histogram& wck_hist_ =                                       \
            ::wck::telemetry::MetricsRegistry::global().histogram("stage." name ".seconds");  \
        return wck_hist_;                                                                     \
      }()                                                                                     \
                                  : nullptr,                                                  \
      times)
