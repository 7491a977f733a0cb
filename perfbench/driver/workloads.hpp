// The benchmark workloads and the raw record they produce. The
// record holds measurements only (op timestamps, spans, counts); the
// metric arithmetic lives in perfbench/metrics.py, where it is tested.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "instrument.hpp"

namespace pb {

struct Config {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path work_dir;  ///< fresh directory for stores
  std::string socket_base;         ///< Unix socket path prefix (short)
};

/// One client operation. Times are now_s() seconds. A closed-loop op is
/// due when it is sent.
struct Op {
  char kind = 'p';   ///< 'p' put / CheckpointManager::write, 'g' get / restore
  char phase = 'o';  ///< 'o' open loop, 'c' closed loop, 'w' untimed warm-up
  int pass = 0;      ///< 0 untraced, 1 traced
  double due = 0.0;
  double send = 0.0;
  double done = 0.0;
  bool ok = true;
  double stored = 0.0;  ///< generation bytes a committed put or write stored
};

struct PhaseInfo {
  char phase = 'o';
  int pass = 0;
  double start = 0.0;
  double end = 0.0;
  double rate = 0.0;  ///< open-loop ops/s over all clients; 0 = closed loop
};

struct Record {
  std::vector<double> setup_s;  ///< one entry per setup repetition
  std::vector<Op> ops;
  std::vector<PhaseInfo> phases;
  double field_bytes = 0.0;  ///< original bytes one put/write carries and get/restore returns
  double mean_rel_error = 0.0;
  double max_rel_error = 0.0;
  std::uint64_t client_retries = 0;
  std::string replay_diverged;  ///< non-empty: a layer replay did not match
  std::vector<Span> spans;
};

/// Runs `cfg.workload`; failures land in `failures`. Throws
/// std::invalid_argument for an unknown workload name.
void run_workload(const Config& cfg, Record& rec, Failures& failures);

}  // namespace pb
