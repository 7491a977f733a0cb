// perfbench_driver: runs one benchmark workload and writes its raw
// record (op timestamps, setup times, counts) and, for a traced run, its
// span trace as JSON. perfbench/run.py builds this program, runs it and
// turns the record into metrics; see perfbench/README.md.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --work-dir DIR --socket PATH --out FILE [--trace-out FILE]
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "simd/dispatch.hpp"
#include "telemetry/metrics.hpp"
#include "workloads.hpp"

namespace {

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string fs_name(const std::filesystem::path& dir) {
  struct statfs st {};
  if (::statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    case 0x01021994: return "tmpfs";
    case 0x858458F6: return "ramfs";
    default: {
      std::ostringstream o;
      o << "0x" << std::hex << static_cast<unsigned long>(st.f_type);
      return o.str();
    }
  }
}

/// Reasons this process must not produce numbers, or empty.
std::string refusal() {
  for (const char* var : {"WCK_THREADS", "WCK_SIMD", "WCK_FAULT_PLAN"}) {
    // The one getenv here guards the measurement itself: each of these
    // changes what the program computes or which kernels it runs.
    if (std::getenv(var) != nullptr) return std::string(var) + " is set; unset it";
  }
#ifndef __OPTIMIZE__
  return "unoptimized build";
#endif
  const std::string flags = PERFBENCH_CXX_FLAGS;
  if (flags.find("-fsanitize") != std::string::npos) return "sanitizer build";
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") return "build type " + type;
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  for (const char* required : {"--workload", "--seed", "--seconds", "--trace", "--work-dir",
                               "--socket", "--out"}) {
    if (!args.count(required)) {
      std::cerr << "perfbench_driver: missing " << required << "\n";
      return 2;
    }
  }
  if (const std::string why = refusal(); !why.empty()) {
    std::cerr << "perfbench_driver: refusing to measure: " << why << "\n";
    return 2;
  }
  // Program telemetry off: its tracer appends to an uncapped buffer, and
  // the end-to-end numbers describe the program as deployed.
  wck::telemetry::set_enabled(false);

  pb::Config cfg;
  cfg.workload = args["--workload"];
  cfg.seed = std::stoull(args["--seed"]);
  cfg.seconds = std::stod(args["--seconds"]);
  cfg.trace = args["--trace"] == "1";
  cfg.work_dir = args["--work-dir"];
  cfg.socket_base = args["--socket"];
  std::filesystem::create_directories(cfg.work_dir);
  const std::string fs = fs_name(cfg.work_dir);
  if (fs == "tmpfs" || fs == "ramfs") {
    std::cerr << "perfbench_driver: store root is on " << fs << "; fsync would cost nothing\n";
    return 2;
  }

  pb::Record rec;
  pb::Failures failures;
  try {
    pb::run_workload(cfg, rec, failures);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 2;
  }

  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);

  std::ofstream out(args["--out"]);
  out << "{\"env\":{\"simd\":" << json_str(wck::simd::to_string(wck::simd::active_level()))
      << ",\"build_type\":" << json_str(PERFBENCH_BUILD_TYPE)
      << ",\"compiler\":" << json_str(__VERSION__)
      << ",\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"store_fs\":" << json_str(fs) << ",\"telemetry\":\"off\"}";
  out << ",\"setup_s\":[";
  for (std::size_t i = 0; i < rec.setup_s.size(); ++i) out << (i ? "," : "") << num(rec.setup_s[i]);
  out << "],\"ops\":[";
  for (std::size_t i = 0; i < rec.ops.size(); ++i) {
    const pb::Op& o = rec.ops[i];
    out << (i ? "," : "") << "[\"" << o.kind << "\",\"" << o.phase << "\"," << o.pass << ","
        << num(o.due) << "," << num(o.send) << "," << num(o.done) << "," << (o.ok ? 1 : 0) << ","
        << num(o.stored) << "]";
  }
  out << "],\"phases\":[";
  for (std::size_t i = 0; i < rec.phases.size(); ++i) {
    const pb::PhaseInfo& p = rec.phases[i];
    out << (i ? "," : "") << "[\"" << p.phase << "\"," << p.pass << "," << num(p.start) << ","
        << num(p.end) << "," << num(p.rate) << "]";
  }
  out << "],\"field_bytes\":" << num(rec.field_bytes)
      << ",\"mean_rel_error\":" << num(rec.mean_rel_error)
      << ",\"max_rel_error\":" << num(rec.max_rel_error)
      << ",\"client_retries\":" << rec.client_retries
      << ",\"peak_rss_mb\":" << num(static_cast<double>(ru.ru_maxrss) / 1024.0)
      << ",\"replay_diverged\":" << json_str(rec.replay_diverged)
      << ",\"checks\":" << failures.attempts() << ",\"failures\":" << failures.count()
      << ",\"failure_reasons\":[";
  const auto reasons = failures.reasons();
  for (std::size_t i = 0; i < reasons.size(); ++i) out << (i ? "," : "") << json_str(reasons[i]);
  out << "]}\n";
  if (!out) {
    std::cerr << "perfbench_driver: cannot write " << args["--out"] << "\n";
    return 2;
  }

  if (args.count("--trace-out")) {
    // One span per line: [id, parent, name, tag, t0, t1, a, b].
    std::ofstream tr(args["--trace-out"]);
    tr << "[\n";
    for (std::size_t i = 0; i < rec.spans.size(); ++i) {
      const pb::Span& s = rec.spans[i];
      tr << (i ? ",\n" : "") << "[" << s.id << "," << s.parent << "," << json_str(s.name) << ","
         << json_str(s.tag) << "," << num(s.t0) << "," << num(s.t1) << "," << num(s.a) << ","
         << num(s.b) << "]";
    }
    tr << "\n]\n";
  }
  return 0;
}
