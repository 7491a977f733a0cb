// Measurement plumbing shared by every workload: the run clock, the
// in-memory span recorder, the failure ledger, the per-input oracles,
// and the two decorators the benchmark passes into CheckpointManager and
// CheckpointService through their public Codec / IoBackend parameters.
//
// Nothing here reaches into the program's internals: the decorators see
// exactly what the program hands a Codec or an IoBackend, and spans are
// recorded only by the benchmark's own code.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "ckpt/codec.hpp"
#include "core/compressor.hpp"
#include "io/io_backend.hpp"
#include "ndarray/ndarray.hpp"
#include "stats/error_metrics.hpp"

namespace pb {

/// Seconds on the steady clock since the process started measuring.
[[nodiscard]] double now_s();

/// One recorded interval. `parent` is 0 for a root span; `a`/`b` carry
/// the span's counts (bytes in/out, element counts), their meaning fixed
/// per span name (see README.md, "Trace file").
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  const char* name = "";
  const char* tag = "";
  double t0 = 0.0;
  double t1 = 0.0;
  double a = 0.0;
  double b = 0.0;
};

/// Most client threads a workload may run; also the span-parent slots.
inline constexpr int kMaxClients = 4;

/// Span recorder. Off by default; while off, record() is never reached
/// (callers test on()). Spans stay in memory until the run ends.
///
/// Parent attribution: a client thread (or the single ckpt-fig9 thread)
/// binds itself to a client slot and publishes the id of the request or
/// iteration span it has open. The store server runs one thread per
/// connection and each connection carries at most one request at a time,
/// so a server thread is bound to the slot of the client whose tenant
/// directory its I/O touches, and every decorator span on it takes that
/// client's open span as parent.
class Tracer {
 public:
  [[nodiscard]] bool on() const noexcept { return on_.load(std::memory_order_relaxed); }
  void set_on(bool on) noexcept { on_.store(on, std::memory_order_relaxed); }

  [[nodiscard]] std::uint64_t next_id() noexcept { return next_id_.fetch_add(1) + 1; }
  void record(const Span& span);
  [[nodiscard]] std::vector<Span> take();

  /// Binds the calling thread to client slot `client` (-1 = none).
  static void bind_thread(int client) noexcept;
  /// Publishes / clears the calling client's open span.
  void open(std::uint64_t span_id) noexcept;
  void close() noexcept { open(0); }
  /// The open span of the client the calling thread is bound to.
  [[nodiscard]] std::uint64_t current_parent() const noexcept;

 private:
  std::atomic<bool> on_{false};
  std::atomic<std::uint64_t> next_id_{0};
  std::array<std::atomic<std::uint64_t>, kMaxClients> open_{};
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span under the calling thread's current parent; records only
/// when the tracer is on.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, const char* tag = "");
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void set_counts(double a, double b) noexcept {
    span_.a = a;
    span_.b = b;
  }

 private:
  Tracer& tracer_;
  Span span_;
  bool on_;
};

/// Counts every failed, refused, timed-out or mismatched operation or
/// check, one count each, with the first few reasons kept for the report.
class Failures {
 public:
  /// Counts one check that is not a client operation (a stored stream).
  void attempt() noexcept { attempts_.fetch_add(1); }
  void add(const std::string& what);
  [[nodiscard]] std::uint64_t count() const noexcept { return count_.load(); }
  [[nodiscard]] std::uint64_t attempts() const noexcept { return attempts_.load(); }
  [[nodiscard]] std::vector<std::string> reasons() const;

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> attempts_{0};
  mutable std::mutex mu_;
  std::vector<std::string> reasons_;
};

/// The codec round trip of one distinct input, computed in setup: every
/// stored stream must equal `stream` and every restore or get must
/// return exactly `decoded`.
struct Oracle {
  wck::NdArray<double> input;
  wck::Bytes stream;
  wck::NdArray<double> decoded;
  wck::StreamInfo info;
  wck::ErrorStats error;
};

/// The oracles of a workload's distinct inputs, found by a fingerprint
/// of the array (shape plus its first and last values), which the setup
/// checks is unique across the set.
class OracleSet {
 public:
  /// Round-trips every input through `codec` and inspects each stream.
  /// Throws std::runtime_error when a stream fails inspection or two
  /// inputs share a fingerprint.
  OracleSet(std::vector<wck::NdArray<double>> inputs, const wck::Codec& codec);

  [[nodiscard]] const Oracle* find(const wck::NdArray<double>& array) const;
  [[nodiscard]] const std::vector<Oracle>& all() const noexcept { return oracles_; }
  [[nodiscard]] const Oracle& operator[](std::size_t i) const { return oracles_[i]; }
  [[nodiscard]] std::size_t size() const noexcept { return oracles_.size(); }

 private:
  std::vector<Oracle> oracles_;
  std::unordered_map<std::uint64_t, std::size_t> by_fingerprint_;
};

/// True when the two arrays have the same shape and the same bits.
[[nodiscard]] bool same_bits(const wck::NdArray<double>& x, const wck::NdArray<double>& y);

/// Codec decorator: forwards to `inner` under a "codec.encode" span and
/// compares every produced stream with its input's oracle (a mismatch
/// or an unknown input is a failure). Decoding never reaches it: restore
/// picks its decoder by the codec name recorded in the file.
class CheckedCodec final : public wck::Codec {
 public:
  CheckedCodec(const wck::Codec& inner, const OracleSet& oracles, Tracer& tracer,
               Failures& failures)
      : inner_(inner), oracles_(oracles), tracer_(tracer), failures_(failures) {}
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] bool lossy() const override { return inner_.lossy(); }

 private:
  [[nodiscard]] wck::Bytes do_encode(const wck::NdArray<double>& array,
                                     wck::StageTimes* times) const override;
  [[nodiscard]] wck::NdArray<double> do_decode(std::span<const std::byte> data) const override;

  const wck::Codec& inner_;
  const OracleSet& oracles_;
  Tracer& tracer_;
  Failures& failures_;
};

/// IoBackend decorator over the POSIX backend: one "io.<op>" span per
/// call, tagged "manifest" or "generation" by file name, and the server
/// thread -> client binding described at Tracer.
class TimedIo final : public wck::IoBackend {
 public:
  /// `tenant_client` maps a tenant directory name under the store root to
  /// the client slot that owns it (empty for the single-thread workload).
  TimedIo(Tracer& tracer, std::map<std::string, int> tenant_client)
      : tracer_(tracer), tenant_client_(std::move(tenant_client)) {}

  [[nodiscard]] wck::Bytes read_file(const std::filesystem::path& path) override;
  void write_file(const std::filesystem::path& path, std::span<const std::byte> data) override;
  void fsync_file(const std::filesystem::path& path) override;
  void fsync_dir(const std::filesystem::path& dir) override;
  void rename_file(const std::filesystem::path& from, const std::filesystem::path& to) override;
  [[nodiscard]] bool remove_file(const std::filesystem::path& path) override;
  [[nodiscard]] bool exists(const std::filesystem::path& path) override;

 private:
  /// Binds the calling thread from `path`'s tenant directory.
  void bind(const std::filesystem::path& path) const;

  Tracer& tracer_;
  const std::map<std::string, int> tenant_client_;
};

}  // namespace pb
