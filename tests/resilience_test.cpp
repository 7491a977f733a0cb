// Resilience-layer tests: fault plans, the fault-injecting backend, the
// durable commit path, CheckpointManager retry/rotation/fallback/scrub,
// async-writer degradation, and distributed parity-group recovery — all
// under deterministic fault plans (no timing or randomness in the
// assertions).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "ckpt/async_writer.hpp"
#include "ckpt/manager.hpp"
#include "climate/distributed.hpp"
#include "core/synthetic.hpp"
#include "io/fault_injection.hpp"
#include "redundancy/xor_parity.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"

namespace wck {
namespace {

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("wck_resil_" + std::to_string(::getpid()) + "_" + std::to_string(counter_++));
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

std::uint64_t counter_value(const std::string& name) {
  const auto snap = telemetry::MetricsRegistry::global().snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

/// Flips one byte of a file in place (out-of-band corruption, as a
/// failing disk would).
void corrupt_file(const std::filesystem::path& path, std::size_t offset) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x5A);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&c, 1);
}

CheckpointManager::Options fast_options(std::size_t keep = 3, int attempts = 4) {
  CheckpointManager::Options options;
  options.keep_generations = keep;
  options.retry.max_attempts = attempts;
  options.retry.sleep_between_attempts = false;
  return options;
}

NdArray<double> test_field(std::uint64_t seed = 7) {
  return make_smooth_field(Shape{16, 16}, seed);
}

// ---------------------------------------------------------------- plans

TEST(FaultPlan, ParsesFullGrammar) {
  const FaultPlan plan = FaultPlan::parse(
      "write:torn@5:every=9:byte=100;fsync:fail@4:count=2;"
      "read:flip@2:bit=3:byte=7:seed=99;rename:fail@1:path=MANIFEST");
  ASSERT_EQ(plan.rules.size(), 4u);
  EXPECT_EQ(plan.rules[0].op, IoOp::kWrite);
  EXPECT_EQ(plan.rules[0].kind, FaultKind::kTorn);
  EXPECT_EQ(plan.rules[0].nth, 5u);
  EXPECT_EQ(plan.rules[0].every, 9u);
  EXPECT_EQ(plan.rules[0].byte_offset, 100u);
  EXPECT_TRUE(plan.rules[0].has_byte);
  EXPECT_EQ(plan.rules[1].op, IoOp::kFsync);
  EXPECT_EQ(plan.rules[1].count, 2u);
  EXPECT_EQ(plan.rules[2].bit, 3);
  EXPECT_TRUE(plan.rules[2].has_bit);
  EXPECT_EQ(plan.rules[2].seed, 99u);
  EXPECT_EQ(plan.rules[3].path_substr, "MANIFEST");
  EXPECT_TRUE(FaultPlan::parse("").empty());
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW((void)FaultPlan::parse("write:fail"), InvalidArgumentError);
  EXPECT_THROW((void)FaultPlan::parse("bogus:fail@1"), InvalidArgumentError);
  EXPECT_THROW((void)FaultPlan::parse("write:bogus@1"), InvalidArgumentError);
  EXPECT_THROW((void)FaultPlan::parse("write:fail@0"), InvalidArgumentError);
  EXPECT_THROW((void)FaultPlan::parse("write:fail@1:frob=2"), InvalidArgumentError);
  EXPECT_THROW((void)FaultPlan::parse("read:torn@1"), InvalidArgumentError);
  EXPECT_THROW((void)FaultPlan::parse("write:flip@1"), InvalidArgumentError);
  EXPECT_THROW((void)FaultPlan::parse("read:flip@1:bit=8"), InvalidArgumentError);
}

// -------------------------------------------------------------- backend

TEST(FaultBackend, FailsExactlyTheConfiguredWrites) {
  TempDir dir;
  FaultInjectingBackend io(FaultPlan::parse("write:fail@2:every=3"), posix_backend());
  const Bytes data{std::byte{1}, std::byte{2}, std::byte{3}};
  int failures = 0;
  for (int i = 1; i <= 8; ++i) {
    try {
      io.write_file(dir.path() / ("f" + std::to_string(i)), data);
    } catch (const IoError&) {
      ++failures;
      EXPECT_TRUE(i == 2 || i == 5 || i == 8) << "unexpected failure at write " << i;
    }
  }
  EXPECT_EQ(failures, 3);
  EXPECT_EQ(io.fault_count(), 3u);
}

TEST(FaultBackend, TornWriteLeavesExactPrefix) {
  TempDir dir;
  FaultInjectingBackend io(FaultPlan::parse("write:torn@1:byte=5"), posix_backend());
  Bytes data(64);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::byte>(i);
  const auto path = dir.path() / "torn";
  EXPECT_THROW(io.write_file(path, data), IoError);
  const Bytes on_disk = posix_backend().read_file(path);
  ASSERT_EQ(on_disk.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(on_disk[i], data[i]);
}

TEST(FaultBackend, ReadFlipIsDeterministic) {
  TempDir dir;
  Bytes data(256);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::byte>(i);
  const auto path = dir.path() / "blob";
  posix_backend().write_file(path, data);

  FaultInjectingBackend a(FaultPlan::parse("read:flip@1:seed=42"), posix_backend());
  FaultInjectingBackend b(FaultPlan::parse("read:flip@1:seed=42"), posix_backend());
  const Bytes ra = a.read_file(path);
  const Bytes rb = b.read_file(path);
  EXPECT_NE(ra, data);  // one bit differs
  EXPECT_EQ(ra, rb);    // but the same bit both times
}

TEST(FaultBackend, PathFilterScopesRules) {
  TempDir dir;
  FaultInjectingBackend io(FaultPlan::parse("write:fail@1:every=1:path=victim"),
                           posix_backend());
  const Bytes data{std::byte{9}};
  EXPECT_NO_THROW(io.write_file(dir.path() / "bystander", data));
  EXPECT_THROW(io.write_file(dir.path() / "victim", data), IoError);
  EXPECT_NO_THROW(io.write_file(dir.path() / "bystander2", data));
}

TEST(AtomicWriteDurable, NoTempResidueAfterFault) {
  TempDir dir;
  FaultInjectingBackend io(FaultPlan::parse("fsync:fail@1"), posix_backend());
  Bytes data(32, std::byte{7});
  const auto target = dir.path() / "commit.bin";
  EXPECT_THROW(atomic_write_durable(io, target, data), IoError);
  // Target untouched, temp removed.
  EXPECT_FALSE(posix_backend().exists(target));
  std::size_t entries = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir.path())) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 0u);
  // A clean retry commits.
  EXPECT_NO_THROW(atomic_write_durable(io, target, data));
  EXPECT_EQ(posix_backend().read_file(target), data);
}

TEST(WriteCheckpoint, ConcurrentWritersToSamePathCannotCollide) {
  // Regression for the fixed shared-".tmp" commit: many writers racing
  // on one target must all succeed and leave a valid, complete file.
  TempDir dir;
  NdArray<double> field = test_field();
  const NullCodec codec;
  const auto path = dir.path() / "shared.wck";
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      CheckpointRegistry reg;
      NdArray<double> copy = field;
      copy[0] = static_cast<double>(t);
      reg.add("state", &copy);
      (void)write_checkpoint(path, reg, codec, static_cast<std::uint64_t>(t));
    });
  }
  for (auto& t : threads) t.join();

  NdArray<double> restored;
  CheckpointRegistry reg;
  reg.add("state", &restored);
  const CheckpointInfo info = read_checkpoint(path, reg);
  EXPECT_LT(info.step, 8u);
  EXPECT_DOUBLE_EQ(restored[0], static_cast<double>(info.step));
  // No temp residue.
  for (const auto& e : std::filesystem::directory_iterator(dir.path())) {
    EXPECT_EQ(e.path(), path) << "leftover " << e.path();
  }
}

// -------------------------------------------------------------- manager

TEST(CheckpointManager, RetriesTransientWriteFaults) {
  TempDir dir;
  FaultInjectingBackend io(FaultPlan::parse("write:fail@1:count=2"), posix_backend());
  const NullCodec codec;
  CheckpointManager manager(dir.path(), codec, fast_options(), &io);
  NdArray<double> state = test_field();
  CheckpointRegistry reg;
  reg.add("state", &state);

  const std::uint64_t retries_before = counter_value("ckpt.write.retries");
  EXPECT_NO_THROW((void)manager.write(reg, 1));
  EXPECT_GE(counter_value("ckpt.write.retries"), retries_before + 1);

  NdArray<double> restored;
  CheckpointRegistry rreg;
  rreg.add("state", &restored);
  const RestoreOutcome outcome = manager.restore(rreg);
  EXPECT_EQ(outcome.source, RestoreSource::kPrimary);
  EXPECT_EQ(outcome.step, 1u);
  EXPECT_EQ(restored, state);
}

TEST(CheckpointManager, FlightRecorderCapturesFaultRetryCommitSequence) {
  // The flight recorder must preserve the *order* of what happened: the
  // injected fault, the retry it caused, and the commit that finally
  // succeeded — that sequence is what a post-mortem reconstructs.
  telemetry::set_enabled(true);
  TempDir dir;
  FaultInjectingBackend io(FaultPlan::parse("write:fail@1:count=2"), posix_backend());
  const NullCodec codec;
  CheckpointManager manager(dir.path(), codec, fast_options(), &io);
  NdArray<double> state = test_field();
  CheckpointRegistry reg;
  reg.add("state", &state);

  auto& log = telemetry::EventLog::global();
  const std::uint64_t first_seq = log.total();
  EXPECT_NO_THROW((void)manager.write(reg, 1));
  NdArray<double> restored;
  CheckpointRegistry rreg;
  rreg.add("state", &restored);
  (void)manager.restore(rreg);

  std::vector<telemetry::Event> events;
  for (const telemetry::Event& e : log.snapshot()) {
    if (e.seq >= first_seq) events.push_back(e);
  }
  const auto index_of = [&](telemetry::EventKind kind) -> std::ptrdiff_t {
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (events[i].kind == kind) return static_cast<std::ptrdiff_t>(i);
    }
    return -1;
  };
  const std::ptrdiff_t begin = index_of(telemetry::EventKind::kCkptBegin);
  const std::ptrdiff_t fault = index_of(telemetry::EventKind::kFaultInjected);
  const std::ptrdiff_t retry = index_of(telemetry::EventKind::kCkptRetry);
  const std::ptrdiff_t commit = index_of(telemetry::EventKind::kCkptCommit);
  const std::ptrdiff_t done = index_of(telemetry::EventKind::kRestoreDone);
  ASSERT_GE(begin, 0);
  ASSERT_GE(fault, 0);
  ASSERT_GE(retry, 0);
  ASSERT_GE(commit, 0);
  ASSERT_GE(done, 0);
  EXPECT_LT(begin, fault);
  EXPECT_LT(fault, retry);
  EXPECT_LT(retry, commit);
  EXPECT_LT(commit, done);
  EXPECT_EQ(events[static_cast<std::size_t>(commit)].step, 1u);
  // The fault event names the op and kind for the post-mortem reader.
  EXPECT_NE(events[static_cast<std::size_t>(fault)].detail.find("write:fail"),
            std::string::npos);
}

TEST(CheckpointManager, GivesUpAfterMaxAttempts) {
  TempDir dir;
  FaultInjectingBackend io(FaultPlan::parse("write:fail@1:every=1"), posix_backend());
  const NullCodec codec;
  CheckpointManager manager(dir.path(), codec, fast_options(3, 3), &io);
  NdArray<double> state = test_field();
  CheckpointRegistry reg;
  reg.add("state", &state);

  const std::uint64_t giveups_before = counter_value("ckpt.write.giveups");
  EXPECT_THROW((void)manager.write(reg, 1), IoError);
  EXPECT_EQ(counter_value("ckpt.write.giveups"), giveups_before + 1);
  // Exactly max_attempts writes were attempted for the generation file.
  EXPECT_GE(io.fault_count(), 3u);
}

TEST(CheckpointManager, RotationKeepsNewestK) {
  TempDir dir;
  const NullCodec codec;
  CheckpointManager manager(dir.path(), codec, fast_options(3), &posix_backend());
  NdArray<double> state = test_field();
  CheckpointRegistry reg;
  reg.add("state", &state);
  for (std::uint64_t step = 1; step <= 6; ++step) {
    state[0] = static_cast<double>(step);
    (void)manager.write(reg, step);
  }
  ASSERT_EQ(manager.generations().size(), 3u);
  EXPECT_EQ(manager.generations()[0].step, 6u);
  EXPECT_EQ(manager.generations()[2].step, 4u);
  EXPECT_FALSE(posix_backend().exists(dir.path() / "ckpt.1.wck"));
  EXPECT_FALSE(posix_backend().exists(dir.path() / "ckpt.3.wck"));
  EXPECT_TRUE(posix_backend().exists(dir.path() / "ckpt.4.wck"));
  EXPECT_TRUE(posix_backend().exists(dir.path() / "ckpt.6.wck"));
}

TEST(CheckpointManager, RestoreFallsBackAcrossCorruptGenerations) {
  TempDir dir;
  const NullCodec codec;
  CheckpointManager manager(dir.path(), codec, fast_options(3), &posix_backend());
  NdArray<double> state = test_field();
  CheckpointRegistry reg;
  reg.add("state", &state);
  std::vector<NdArray<double>> committed;
  for (std::uint64_t step = 1; step <= 3; ++step) {
    state[0] = 100.0 + static_cast<double>(step);
    (void)manager.write(reg, step);
    committed.push_back(state);
  }
  // Corrupt the two newest generations out-of-band.
  corrupt_file(dir.path() / "ckpt.3.wck", 40);
  corrupt_file(dir.path() / "ckpt.2.wck", 40);

  const std::uint64_t fallbacks_before = counter_value("ckpt.restore.fallbacks");
  NdArray<double> restored;
  CheckpointRegistry rreg;
  rreg.add("state", &restored);
  const RestoreOutcome outcome = manager.restore(rreg);
  EXPECT_EQ(outcome.source, RestoreSource::kOlderGeneration);
  EXPECT_EQ(outcome.step, 1u);
  EXPECT_EQ(outcome.generations_tried, 3u);
  EXPECT_EQ(restored, committed[0]);
  EXPECT_EQ(counter_value("ckpt.restore.fallbacks"), fallbacks_before + 1);
}

TEST(CheckpointManager, ParityReconstructionWhenAllGenerationsLost) {
  TempDir dir;
  const NullCodec codec;
  CheckpointManager manager(dir.path(), codec, fast_options(2), &posix_backend());
  InMemoryCheckpointStore store(2, 2);
  manager.attach_parity_store(&store, 0);

  NdArray<double> state = test_field();
  CheckpointRegistry reg;
  reg.add("state", &state);
  (void)manager.write(reg, 1);
  state[0] = 42.0;
  (void)manager.write(reg, 2);
  const NdArray<double> committed = state;

  corrupt_file(dir.path() / "ckpt.1.wck", 30);
  corrupt_file(dir.path() / "ckpt.2.wck", 30);
  // Lose the rank's own in-memory copy too: retrieval must XOR-recover
  // it from the parity group.
  store.fail_rank(0);
  ASSERT_FALSE(store.rank_alive(0));

  const std::uint64_t parity_before = counter_value("ckpt.restore.parity_reconstructions");
  NdArray<double> restored;
  CheckpointRegistry rreg;
  rreg.add("state", &restored);
  const RestoreOutcome outcome = manager.restore(rreg);
  EXPECT_EQ(outcome.source, RestoreSource::kParity);
  EXPECT_EQ(outcome.step, 2u);
  EXPECT_EQ(restored, committed);
  EXPECT_EQ(counter_value("ckpt.restore.parity_reconstructions"), parity_before + 1);
}

TEST(CheckpointManager, ThrowsWhenNothingIsRestorable) {
  TempDir dir;
  const NullCodec codec;
  CheckpointManager manager(dir.path(), codec, fast_options(2), &posix_backend());
  NdArray<double> state = test_field();
  CheckpointRegistry reg;
  reg.add("state", &state);
  (void)manager.write(reg, 1);
  corrupt_file(dir.path() / "ckpt.1.wck", 30);

  NdArray<double> restored;
  CheckpointRegistry rreg;
  rreg.add("state", &restored);
  EXPECT_THROW((void)manager.restore(rreg), CorruptDataError);
}

TEST(CheckpointManager, ManifestSurvivesRestart) {
  TempDir dir;
  const NullCodec codec;
  NdArray<double> state = test_field();
  CheckpointRegistry reg;
  reg.add("state", &state);
  {
    CheckpointManager manager(dir.path(), codec, fast_options(3), &posix_backend());
    for (std::uint64_t step = 1; step <= 4; ++step) (void)manager.write(reg, step);
  }
  CheckpointManager reborn(dir.path(), codec, fast_options(3), &posix_backend());
  ASSERT_EQ(reborn.generations().size(), 3u);
  EXPECT_EQ(reborn.generations()[0].step, 4u);

  NdArray<double> restored;
  CheckpointRegistry rreg;
  rreg.add("state", &restored);
  EXPECT_EQ(reborn.restore(rreg).step, 4u);
}

TEST(CheckpointManager, RebuildsFromScanWhenManifestLost) {
  TempDir dir;
  const NullCodec codec;
  NdArray<double> state = test_field();
  CheckpointRegistry reg;
  reg.add("state", &state);
  {
    CheckpointManager manager(dir.path(), codec, fast_options(3), &posix_backend());
    for (std::uint64_t step = 1; step <= 3; ++step) (void)manager.write(reg, step);
  }
  ASSERT_TRUE(posix_backend().remove_file(dir.path() / "MANIFEST"));

  CheckpointManager reborn(dir.path(), codec, fast_options(3), &posix_backend());
  ASSERT_EQ(reborn.generations().size(), 3u);
  NdArray<double> restored;
  CheckpointRegistry rreg;
  rreg.add("state", &restored);
  const RestoreOutcome outcome = reborn.restore(rreg);
  EXPECT_EQ(outcome.step, 3u);
  EXPECT_EQ(restored, state);
}

// Regression test for the monitor introduced with the thread-safety
// annotation pass: CheckpointManager previously had no lock at all, so
// concurrent write() calls raced on the generation list and manifest
// commits could interleave. Under the monitor, every write must land as
// its own generation and the manifest must stay loadable.
TEST(CheckpointManager, ConcurrentWritersKeepGenerationsConsistent) {
  TempDir dir;
  const NullCodec codec;
  constexpr int kThreads = 4;
  constexpr int kStepsPerThread = 6;
  constexpr std::size_t kTotal = kThreads * kStepsPerThread;
  CheckpointManager manager(dir.path(), codec, fast_options(kTotal), &posix_backend());

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&manager, t] {
      NdArray<double> state = test_field(static_cast<std::uint64_t>(t + 1));
      CheckpointRegistry reg;
      reg.add("state", &state);
      for (int s = 0; s < kStepsPerThread; ++s) {
        const auto step = static_cast<std::uint64_t>(t * kStepsPerThread + s + 1);
        (void)manager.write(reg, step);
      }
    });
  }
  for (auto& w : writers) w.join();

  // Every write made it in, with no duplicated or lost steps.
  const auto generations = manager.generations();
  ASSERT_EQ(generations.size(), kTotal);
  std::set<std::uint64_t> steps;
  for (const auto& gen : generations) steps.insert(gen.step);
  EXPECT_EQ(steps.size(), kTotal);
  EXPECT_EQ(*steps.rbegin(), kTotal);

  // The manifest the interleaved writers committed is what a fresh
  // manager loads, and the newest generation restores.
  CheckpointManager reborn(dir.path(), codec, fast_options(kTotal), &posix_backend());
  ASSERT_EQ(reborn.generations().size(), kTotal);
  NdArray<double> restored;
  CheckpointRegistry rreg;
  rreg.add("state", &restored);
  EXPECT_EQ(reborn.restore(rreg).step, kTotal);
}

TEST(CheckpointManager, ScrubQuarantinesCorruptGenerations) {
  TempDir dir;
  const NullCodec codec;
  CheckpointManager manager(dir.path(), codec, fast_options(3), &posix_backend());
  NdArray<double> state = test_field();
  CheckpointRegistry reg;
  reg.add("state", &state);
  for (std::uint64_t step = 1; step <= 3; ++step) (void)manager.write(reg, step);
  corrupt_file(dir.path() / "ckpt.2.wck", 25);

  const ScrubReport report = manager.scrub();
  EXPECT_EQ(report.checked, 3u);
  EXPECT_EQ(report.corrupt, 1u);
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_TRUE(posix_backend().exists(report.quarantined[0]));
  EXPECT_FALSE(posix_backend().exists(dir.path() / "ckpt.2.wck"));
  ASSERT_EQ(manager.generations().size(), 2u);

  // The restore chain no longer touches the quarantined generation.
  NdArray<double> restored;
  CheckpointRegistry rreg;
  rreg.add("state", &restored);
  EXPECT_EQ(manager.restore(rreg).step, 3u);

  // A clean store scrubs clean.
  const ScrubReport again = manager.scrub();
  EXPECT_EQ(again.corrupt, 0u);
}

// --------------------------------------------------------- async writer

TEST(AsyncWriterResilience, WorkerSurvivesThrowingWriteAndDrainKeepsError) {
  TempDir dir;
  FaultInjectingBackend io(FaultPlan::parse("write:fail@1:every=1:path=doomed"),
                           posix_backend());
  NdArray<double> state = test_field();
  CheckpointRegistry reg;
  reg.add("state", &state);
  const NullCodec codec;
  AsyncCheckpointWriter writer(codec, {}, &io);

  auto doomed = writer.write_async(dir.path() / "doomed.wck", reg, 1);
  auto healthy1 = writer.write_async(dir.path() / "ok1.wck", reg, 2);
  auto healthy2 = writer.write_async(dir.path() / "ok2.wck", reg, 3);
  writer.drain();

  // drain() must not swallow the stored exception — it is still in the
  // future afterwards — and the worker kept serving later jobs.
  EXPECT_THROW((void)doomed.get(), IoError);
  EXPECT_EQ(healthy1.get().step, 2u);
  EXPECT_EQ(healthy2.get().step, 3u);
  EXPECT_TRUE(posix_backend().exists(dir.path() / "ok2.wck"));
  EXPECT_TRUE(writer.healthy());
}

/// Backend whose writes block until released — makes queue-buildup
/// deterministic for backpressure tests.
class GatedBackend final : public IoBackend {
 public:
  Bytes read_file(const std::filesystem::path& path) override {
    return posix_backend().read_file(path);
  }
  void write_file(const std::filesystem::path& path,
                  std::span<const std::byte> data) override {
    entered_.fetch_add(1);
    std::unique_lock lk(mu_);
    cv_.wait(lk, [this] { return open_; });
    posix_backend().write_file(path, data);
  }
  void fsync_file(const std::filesystem::path& path) override {
    posix_backend().fsync_file(path);
  }
  void fsync_dir(const std::filesystem::path& dir) override {
    posix_backend().fsync_dir(dir);
  }
  void rename_file(const std::filesystem::path& from,
                   const std::filesystem::path& to) override {
    posix_backend().rename_file(from, to);
  }
  bool remove_file(const std::filesystem::path& path) override {
    return posix_backend().remove_file(path);
  }
  bool exists(const std::filesystem::path& path) override {
    return posix_backend().exists(path);
  }
  void open_gate() {
    {
      std::lock_guard lk(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  /// Writers that have entered write_file (i.e. were dequeued by the
  /// worker) — lets tests wait until the queue state is deterministic.
  [[nodiscard]] int entered() const noexcept { return entered_.load(); }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
  std::atomic<int> entered_{0};
};

TEST(AsyncWriterResilience, RejectNewestBackpressureFailsFutureExplicitly) {
  TempDir dir;
  GatedBackend io;
  NdArray<double> state = test_field();
  CheckpointRegistry reg;
  reg.add("state", &state);
  const NullCodec codec;
  AsyncWriterOptions options;
  options.max_queue = 1;
  options.backpressure = AsyncWriterOptions::Backpressure::kRejectNewest;
  AsyncCheckpointWriter writer(codec, options, &io);

  auto first = writer.write_async(dir.path() / "a.wck", reg, 1);  // worker blocks on gate
  // Wait until the worker has dequeued the first job (it is blocked
  // inside write_file on the gate) so the queue state is deterministic.
  while (io.entered() < 1) std::this_thread::yield();
  auto queued = writer.write_async(dir.path() / "b.wck", reg, 2);    // fills the queue
  auto rejected = writer.write_async(dir.path() / "c.wck", reg, 3);  // over capacity

  EXPECT_THROW((void)rejected.get(), IoError);  // fails fast, pre-gate
  io.open_gate();
  writer.drain();
  EXPECT_EQ(first.get().step, 1u);
  EXPECT_EQ(queued.get().step, 2u);
  EXPECT_FALSE(posix_backend().exists(dir.path() / "c.wck"));
}

TEST(AsyncWriterResilience, DropOldestBackpressureEvictsWithError) {
  TempDir dir;
  GatedBackend io;
  NdArray<double> state = test_field();
  CheckpointRegistry reg;
  reg.add("state", &state);
  const NullCodec codec;
  AsyncWriterOptions options;
  options.max_queue = 1;
  options.backpressure = AsyncWriterOptions::Backpressure::kDropOldest;
  AsyncCheckpointWriter writer(codec, options, &io);

  auto first = writer.write_async(dir.path() / "a.wck", reg, 1);
  while (io.entered() < 1) std::this_thread::yield();
  auto evicted = writer.write_async(dir.path() / "b.wck", reg, 2);
  auto kept = writer.write_async(dir.path() / "c.wck", reg, 3);  // evicts b

  EXPECT_THROW((void)evicted.get(), IoError);
  io.open_gate();
  writer.drain();
  EXPECT_EQ(first.get().step, 1u);
  EXPECT_EQ(kept.get().step, 3u);
  EXPECT_FALSE(posix_backend().exists(dir.path() / "b.wck"));
}

TEST(AsyncWriterResilience, PersistentFailuresFlipHealthAndFailFast) {
  TempDir dir;
  FaultInjectingBackend io(FaultPlan::parse("write:fail@1:every=1"), posix_backend());
  NdArray<double> state = test_field();
  CheckpointRegistry reg;
  reg.add("state", &state);
  const NullCodec codec;
  AsyncWriterOptions options;
  options.unhealthy_after = 2;
  AsyncCheckpointWriter writer(codec, options, &io);

  auto f1 = writer.write_async(dir.path() / "x1.wck", reg, 1);
  auto f2 = writer.write_async(dir.path() / "x2.wck", reg, 2);
  writer.drain();
  EXPECT_THROW((void)f1.get(), IoError);
  EXPECT_THROW((void)f2.get(), IoError);
  EXPECT_FALSE(writer.healthy());
  EXPECT_EQ(writer.consecutive_failures(), 2u);

  // Unhealthy: the job is never attempted, the error is immediate and
  // names the health state.
  auto f3 = writer.write_async(dir.path() / "x3.wck", reg, 3);
  try {
    (void)f3.get();
    FAIL() << "expected fail-fast rejection";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("unhealthy"), std::string::npos);
  }
  EXPECT_EQ(writer.pending(), 0u);
}

// --------------------------------------------------- distributed ranks

ClimateConfig small_grid() {
  ClimateConfig cfg;
  cfg.nx = 32;
  cfg.ny = 16;
  cfg.nz = 2;
  return cfg;
}

TEST(DistributedResilience, PerRankFaultInjectionIsScopedToTheRank) {
  TempDir dir;
  const NullCodec codec;
  World world(2);
  world.run([&](Comm& comm) {
    DistributedClimate model(small_grid(), comm);
    model.run(3);
    // Rank 0's storage path is broken; rank 1's is healthy.
    FaultInjectingBackend faulty(FaultPlan::parse("write:fail@1:every=1"),
                                 posix_backend());
    IoBackend* io = comm.rank() == 0 ? static_cast<IoBackend*>(&faulty) : nullptr;
    if (comm.rank() == 0) {
      EXPECT_THROW((void)model.write_local_checkpoint(dir.path(), codec, io), IoError);
    } else {
      EXPECT_NO_THROW((void)model.write_local_checkpoint(dir.path(), codec, io));
    }
    comm.barrier();
    EXPECT_FALSE(posix_backend().exists(dir.path() / "rank_0_step_3.wck"));
    EXPECT_TRUE(posix_backend().exists(dir.path() / "rank_1_step_3.wck"));
  });
}

}  // namespace
}  // namespace wck
