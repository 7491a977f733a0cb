#include "ckpt/manager.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <thread>

#include "telemetry/telemetry.hpp"
#include "util/checksum.hpp"
#include "util/error.hpp"

namespace wck {
namespace {

constexpr const char* kManifestName = "MANIFEST";
constexpr const char* kManifestHeader = "wck-manifest v1";
constexpr std::uint32_t kCheckpointMagic = 0x504B4357;  // mirrors checkpoint.cpp

std::string generation_file_name(std::uint64_t step) {
  return "ckpt." + std::to_string(step) + ".wck";
}

/// Parses "ckpt.<step>.wck"; nullopt for anything else.
std::optional<std::uint64_t> step_from_file_name(const std::string& name) {
  constexpr std::string_view prefix = "ckpt.";
  constexpr std::string_view suffix = ".wck";
  if (name.size() <= prefix.size() + suffix.size()) return std::nullopt;
  if (name.rfind(prefix, 0) != 0) return std::nullopt;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return std::nullopt;
  }
  const std::string_view digits(name.data() + prefix.size(),
                                name.size() - prefix.size() - suffix.size());
  std::uint64_t step = 0;
  const auto [ptr, ec] = std::from_chars(digits.begin(), digits.end(), step);
  if (ec != std::errc{} || ptr != digits.end()) return std::nullopt;
  return step;
}

}  // namespace

const char* restore_source_name(RestoreSource source) noexcept {
  switch (source) {
    case RestoreSource::kPrimary: return "primary";
    case RestoreSource::kOlderGeneration: return "older-generation";
    case RestoreSource::kParity: return "parity";
  }
  return "unknown";
}

CheckpointManager::CheckpointManager(std::filesystem::path dir, const Codec& codec,
                                     Options options, IoBackend* io)
    : dir_(std::move(dir)), codec_(codec), options_(options), io_(io) {
  if (options_.keep_generations == 0) {
    throw InvalidArgumentError("CheckpointManager: keep_generations must be >= 1");
  }
  if (options_.retry.max_attempts < 1) {
    throw InvalidArgumentError("CheckpointManager: retry.max_attempts must be >= 1");
  }
  std::filesystem::create_directories(dir_);
  MutexLock lk(mu_);
  load_manifest();
  sweep_stale_tmp_files();
}

void CheckpointManager::sweep_stale_tmp_files() {
  // atomic_write_durable stages every commit as `<target>.tmp.<pid>.<seq>`
  // and removes the staging file on both success and failure — so any
  // `*.tmp.*` file found at open time is debris from a process that
  // died mid-commit. None of them are referenced by the manifest;
  // removing them reclaims space and keeps crash-kill soaks from
  // accreting garbage across restarts.
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.find(".tmp.") == std::string::npos) continue;
    try {
      if (io().remove_file(entry.path())) {
        ++tmp_swept_;
        WCK_EVENT(kTmpSwept, 0, name);
      }
    } catch (const IoError&) {
      // Best effort: an unremovable stale temp is annoying, not fatal.
      WCK_COUNTER_ADD("ckpt.tmp.sweep_failures", 1);
    }
  }
  if (tmp_swept_ > 0) WCK_COUNTER_ADD("ckpt.tmp.swept", tmp_swept_);
}

IoBackend& CheckpointManager::io() const noexcept {
  return io_ != nullptr ? *io_ : default_io_backend();
}

void CheckpointManager::load_manifest() {
  generations_.clear();
  const std::filesystem::path manifest = dir_ / kManifestName;
  bool manifest_ok = false;
  if (io().exists(manifest)) {
    try {
      const Bytes raw = io().read_file(manifest);
      const std::string text(reinterpret_cast<const char*>(raw.data()), raw.size());
      std::size_t pos = 0;
      std::size_t line_no = 0;
      manifest_ok = true;
      while (pos < text.size()) {
        const std::size_t nl = text.find('\n', pos);
        const std::string line =
            text.substr(pos, nl == std::string::npos ? nl : nl - pos);
        pos = nl == std::string::npos ? text.size() : nl + 1;
        if (line.empty()) continue;
        if (line_no++ == 0) {
          if (line != kManifestHeader) {
            manifest_ok = false;
            break;
          }
          continue;
        }
        unsigned long long step = 0;
        unsigned long long size = 0;
        char crc_hex[16] = {0};
        char file[256] = {0};
        if (std::sscanf(line.c_str(), "%llu %15s %llu %255s", &step, crc_hex, &size,
                        file) != 4) {
          manifest_ok = false;
          break;
        }
        Generation gen;
        gen.step = step;
        gen.size = size;
        gen.crc = static_cast<std::uint32_t>(std::strtoul(crc_hex, nullptr, 16));
        gen.file = file;
        generations_.push_back(std::move(gen));
      }
      if (!manifest_ok) generations_.clear();
    } catch (const IoError&) {
      manifest_ok = false;
    }
  }

  if (!manifest_ok) {
    // No (readable) manifest: recover what we can by scanning for
    // generation files. size==0 marks "no manifest metadata" — restore
    // then relies solely on the per-field CRCs inside the file.
    WCK_COUNTER_ADD("ckpt.manifest.rebuilds", 1);
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
      const auto step = step_from_file_name(entry.path().filename().string());
      if (!step.has_value()) continue;
      Generation gen;
      gen.step = *step;
      gen.file = entry.path().filename().string();
      generations_.push_back(std::move(gen));
    }
    std::sort(generations_.begin(), generations_.end(),
              [](const Generation& a, const Generation& b) { return a.step > b.step; });
  }
  WCK_GAUGE_SET("ckpt.generations", static_cast<double>(generations_.size()));
}

void CheckpointManager::commit_manifest() {
  std::string text = std::string(kManifestHeader) + "\n";
  char line[384];
  for (const Generation& gen : generations_) {
    std::snprintf(line, sizeof(line), "%llu %08x %llu %s\n",
                  static_cast<unsigned long long>(gen.step), gen.crc,
                  static_cast<unsigned long long>(gen.size), gen.file.c_str());
    text += line;
  }
  commit_with_retry(dir_ / kManifestName,
                    Bytes(reinterpret_cast<const std::byte*>(text.data()),
                          reinterpret_cast<const std::byte*>(text.data()) + text.size()));
}

void CheckpointManager::commit_with_retry(const std::filesystem::path& path,
                                          const Bytes& data) {
  Backoff backoff(options_.retry);
  for (;;) {
    try {
      atomic_write_durable(io(), path, data);
      return;
    } catch (const IoError&) {
      if (!backoff.try_again()) {
        WCK_COUNTER_ADD("ckpt.write.giveups", 1);
        WCK_EVENT(kCkptGiveup, 0,
                  path.filename().string() + " after " +
                      std::to_string(backoff.failures()) + " attempts");
        throw;
      }
      WCK_COUNTER_ADD("ckpt.write.retries", 1);
      WCK_EVENT(kCkptRetry, 0,
                path.filename().string() + " attempt " +
                    std::to_string(backoff.failures()) + "/" +
                    std::to_string(options_.retry.max_attempts));
    }
  }
}

CheckpointInfo CheckpointManager::write(const CheckpointRegistry& registry,
                                        std::uint64_t step) {
  WCK_TRACE_SPAN("ckpt.manager.write");
  WCK_EVENT(kCkptBegin, step, "");
  CheckpointInfo info;
  const Bytes data = serialize_checkpoint(registry, codec_, step, &info);

  // Monitor section: generation list + manifest mutate together.
  MutexLock lk(mu_);
  if (options_.max_total_bytes != 0) {
    // Rotation-aware admission: charge only the generations that would
    // survive this commit (same-step rewrite replaces its entry, and
    // anything past keep_generations rotates out), so a full store whose
    // oldest generation is about to rotate still accepts writes that fit
    // the post-rotation budget. Checked before any I/O: a rejected put
    // leaves the store byte-identical.
    // Simulate the post-commit survivor set: existing generations minus
    // any same-step entry, plus the new one, newest keep_generations by
    // step. The new payload is charged even when it would itself rotate
    // out immediately — it exists on disk until rotate() runs.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> sim;  // (step, size)
    sim.reserve(generations_.size() + 1);
    sim.emplace_back(step, data.size());
    for (const Generation& g : generations_) {
      if (g.step != step) sim.emplace_back(g.step, g.size);
    }
    std::sort(sim.begin(), sim.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    std::uint64_t after = data.size();
    for (std::size_t i = 0; i < sim.size() && i < options_.keep_generations; ++i) {
      if (sim[i].first != step) after += sim[i].second;
    }
    if (after > options_.max_total_bytes) {
      WCK_COUNTER_ADD("ckpt.quota.rejections", 1);
      WCK_EVENT(kQuotaRejected, step,
                std::to_string(after) + " bytes would exceed quota " +
                    std::to_string(options_.max_total_bytes));
      throw QuotaExceededError(
          "CheckpointManager: step " + std::to_string(step) + " needs " +
          std::to_string(after) + " bytes but quota is " +
          std::to_string(options_.max_total_bytes) + " (" + dir_.string() + ")");
    }
  }
  Generation gen;
  gen.step = step;
  gen.crc = crc32(std::span<const std::byte>(data));
  gen.size = data.size();
  gen.file = generation_file_name(step);
  commit_with_retry(dir_ / gen.file, data);

  // Same-step rewrite replaces the old entry instead of duplicating it.
  std::erase_if(generations_, [&](const Generation& g) { return g.step == step; });
  generations_.insert(generations_.begin(), std::move(gen));
  std::sort(generations_.begin(), generations_.end(),
            [](const Generation& a, const Generation& b) { return a.step > b.step; });
  rotate();
  commit_manifest();
  WCK_GAUGE_SET("ckpt.generations", static_cast<double>(generations_.size()));
  WCK_EVENT(kCkptCommit, step,
            generation_file_name(step) + " " + std::to_string(info.stored_bytes) +
                " bytes");

  if (parity_store_ != nullptr) parity_store_->store(parity_rank_, data);
  return info;
}

void CheckpointManager::rotate() {
  while (generations_.size() > options_.keep_generations) {
    const Generation old = generations_.back();
    generations_.pop_back();
    try {
      // false (already gone) is as good as removed here.
      (void)io().remove_file(dir_ / old.file);
      WCK_COUNTER_ADD("ckpt.rotate.removed", 1);
      WCK_EVENT(kCkptRotate, old.step, old.file);
    } catch (const IoError&) {
      // A failed delete must not fail the checkpoint that just
      // committed; the orphan is picked up by a later rotation/scrub.
      WCK_COUNTER_ADD("ckpt.rotate.remove_failures", 1);
    }
  }
}

std::optional<CheckpointInfo> CheckpointManager::try_restore_generation(
    const Generation& gen, const CheckpointRegistry& registry) {
  Bytes data;
  try {
    data = io().read_file(dir_ / gen.file);
  } catch (const IoError&) {
    WCK_COUNTER_ADD("ckpt.restore.read_failures", 1);
    return std::nullopt;
  }
  // Whole-file manifest check first: cheaper than decoding, and catches
  // truncated or corrupt files even in fields the registry doesn't cover.
  if (gen.size != 0 &&
      (data.size() != gen.size || crc32(std::span<const std::byte>(data)) != gen.crc)) {
    WCK_COUNTER_ADD("ckpt.restore.manifest_mismatches", 1);
    return std::nullopt;
  }
  try {
    return restore_checkpoint(data, registry);
  } catch (const Error&) {
    // Transactional: the registry was not touched (aborts counted by
    // restore_checkpoint itself).
    return std::nullopt;
  }
}

RestoreOutcome CheckpointManager::restore(const CheckpointRegistry& registry) {
  WCK_TRACE_SPAN("ckpt.manager.restore");
  MutexLock lk(mu_);
  WCK_EVENT(kRestoreBegin, 0, std::to_string(generations_.size()) + " generations");
  RestoreOutcome outcome;
  for (std::size_t i = 0; i < generations_.size(); ++i) {
    ++outcome.generations_tried;
    auto info = try_restore_generation(generations_[i], registry);
    if (!info.has_value()) {
      WCK_EVENT(kRestoreFallback, generations_[i].step, generations_[i].file);
      continue;
    }
    outcome.info = std::move(*info);
    outcome.step = generations_[i].step;
    outcome.path = dir_ / generations_[i].file;
    outcome.source = i == 0 ? RestoreSource::kPrimary : RestoreSource::kOlderGeneration;
    if (i > 0) WCK_COUNTER_ADD("ckpt.restore.fallbacks", 1);
    WCK_EVENT(kRestoreDone, outcome.step, restore_source_name(outcome.source));
    return outcome;
  }

  if (parity_store_ != nullptr) {
    const std::optional<Bytes> payload = parity_store_->retrieve(parity_rank_);
    if (payload.has_value()) {
      try {
        outcome.info = restore_checkpoint(*payload, registry);
        outcome.step = outcome.info.step;
        outcome.source = RestoreSource::kParity;
        WCK_COUNTER_ADD("ckpt.restore.parity_reconstructions", 1);
        WCK_EVENT(kRestoreParity, outcome.step, "xor parity rank " +
                                                    std::to_string(parity_rank_));
        return outcome;
      } catch (const Error&) {
        // Fall through to the terminal error below.
      }
    }
  }
  WCK_EVENT(kRestoreFailed, 0,
            std::to_string(outcome.generations_tried) + " generations tried");
  throw CorruptDataError("CheckpointManager: no restorable generation in " + dir_.string() +
                         " (" + std::to_string(outcome.generations_tried) + " tried)");
}

ScrubReport CheckpointManager::scrub() {
  WCK_TRACE_SPAN("ckpt.manager.scrub");
  MutexLock lk(mu_);
  ScrubReport report;
  std::vector<Generation> kept;
  kept.reserve(generations_.size());
  for (const Generation& gen : generations_) {
    ++report.checked;
    bool ok = false;
    try {
      const Bytes data = io().read_file(dir_ / gen.file);
      const bool manifest_ok =
          gen.size == 0 ||
          (data.size() == gen.size && crc32(std::span<const std::byte>(data)) == gen.crc);
      // Even without manifest metadata a generation must at least open
      // with the checkpoint magic.
      const bool magic_ok =
          data.size() >= 4 && (static_cast<std::uint32_t>(data[0]) |
                               (static_cast<std::uint32_t>(data[1]) << 8) |
                               (static_cast<std::uint32_t>(data[2]) << 16) |
                               (static_cast<std::uint32_t>(data[3]) << 24)) == kCheckpointMagic;
      ok = manifest_ok && magic_ok;
    } catch (const IoError&) {
      ok = false;
    }
    if (ok) {
      kept.push_back(gen);
      continue;
    }
    ++report.corrupt;
    WCK_COUNTER_ADD("ckpt.scrub.corrupt", 1);
    WCK_EVENT(kScrubCorrupt, gen.step, gen.file);
    const std::filesystem::path from = dir_ / gen.file;
    const std::filesystem::path to =
        dir_ / (gen.file + ".quarantined." + std::to_string(quarantine_seq_++));
    try {
      io().rename_file(from, to);
      report.quarantined.push_back(to);
    } catch (const IoError&) {
      // Quarantine is best effort: dropping the entry from the manifest
      // already removes it from the restore chain.
      WCK_COUNTER_ADD("ckpt.scrub.quarantine_failures", 1);
    }
  }
  WCK_COUNTER_ADD("ckpt.scrub.checked", report.checked);
  if (report.corrupt > 0) {
    generations_ = std::move(kept);
    commit_manifest();
    WCK_GAUGE_SET("ckpt.generations", static_cast<double>(generations_.size()));
  }
  return report;
}

void CheckpointManager::attach_parity_store(InMemoryCheckpointStore* store,
                                            std::size_t rank) {
  MutexLock lk(mu_);
  parity_store_ = store;
  parity_rank_ = rank;
}

std::vector<CheckpointManager::Generation> CheckpointManager::generations() const {
  MutexLock lk(mu_);
  return generations_;
}

std::uint64_t CheckpointManager::total_stored_bytes() const {
  MutexLock lk(mu_);
  std::uint64_t total = 0;
  for (const Generation& gen : generations_) total += gen.size;
  return total;
}

}  // namespace wck
