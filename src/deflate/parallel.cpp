#include "deflate/parallel.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "deflate/deflate.hpp"
#include "parallel/thread_pool.hpp"
#include "telemetry/telemetry.hpp"
#include "util/checksum.hpp"
#include "util/env.hpp"
#include "util/error.hpp"

namespace wck {
namespace {

constexpr std::uint32_t kShardedMagic = 0x504B4357;  // "WCKP" little-endian
constexpr std::uint8_t kShardedVersion = 1;

/// DEFLATE cannot expand beyond ~1032:1 (stored-block overhead bounds the
/// other direction; 1032:1 is the canonical zlib maximum-compression
/// figure). A frame claiming more is malformed, and rejecting it before
/// allocation keeps fuzzed inputs from turning into allocation bombs.
constexpr std::uint64_t kMaxExpansionRatio = 1032;

/// Smallest possible per-block table entry: 1-byte comp varint, 1-byte
/// uncomp varint, 4-byte CRC. Bounds block_count before the table vector
/// is reserved.
constexpr std::uint64_t kMinTableEntryBytes = 6;

struct BlockEntry {
  std::size_t compressed_size = 0;
  std::size_t uncompressed_size = 0;
  std::uint32_t crc = 0;
};

/// The compression fan-out runs on a process-shared pool sized to the
/// machine, not a pool-per-call: checkpoint codecs may compress from
/// several threads at once (chunked compression, async writers) and the
/// shards of all of them should multiplex over one set of workers.
/// Deliberately leaked — workers may touch telemetry singletons, so the
/// pool must never be destroyed during static teardown. Still reachable
/// through the static pointer, so LeakSanitizer stays quiet.
ThreadPool& shared_pool() {
  static ThreadPool* pool = new ThreadPool(0);
  return *pool;
}

/// Runs fn(i) for i in [0, n) using at most `threads` concurrent strips
/// (strip w owns every i with i % strips == w). Unlike
/// ThreadPool::parallel_for this honors a caller-requested width below
/// the pool size, which is what makes WCK_THREADS=1 vs =8 a pure
/// wall-clock knob. Strip tasks never submit further pool work, so a
/// caller already running on some *other* pool cannot deadlock here.
/// Inline work never touches the pool, so a process that only ever
/// compresses inline never builds it.
template <typename Fn>
void for_each_block(std::size_t n, std::size_t threads, const Fn& fn) {
  const std::size_t strips =
      threads <= 1 || n <= 1 ? 1 : std::min({threads, n, shared_pool().thread_count()});
  if (strips <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::vector<std::future<void>> futs;
  futs.reserve(strips);
  try {
    for (std::size_t w = 0; w < strips; ++w) {
      futs.push_back(shared_pool().submit([w, strips, n, &fn] {
        for (std::size_t i = w; i < n; i += strips) fn(i);
      }));
    }
  } catch (...) {
    for (auto& f : futs) {
      try {
        f.get();
      } catch (...) {  // NOLINT(bugprone-empty-catch)
      }
    }
    throw;
  }
  std::exception_ptr first_error;
  for (auto& f : futs) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

Bytes sharded_deflate_compress(std::span<const std::byte> input,
                               const ShardedDeflateOptions& options) {
  if (options.block_size == 0) {
    throw InvalidArgumentError("sharded deflate: block_size must be >= 1");
  }
  WCK_TRACE_SPAN("deflate.sharded.compress");
  const std::size_t block_size = options.block_size;
  const std::size_t blocks = (input.size() + block_size - 1) / block_size;
  const std::size_t threads = std::max<std::size_t>(options.threads, 1);

  WCK_COUNTER_ADD("deflate.blocks", blocks);
  WCK_GAUGE_SET("deflate.threads", static_cast<double>(threads));

  // Each block compresses independently into its own slot; assembly below
  // concatenates in block order, so the output bytes depend only on
  // (input, block_size) — never on how blocks were scheduled.
  std::vector<Bytes> bodies(blocks);
  std::vector<std::uint32_t> crcs(blocks);
  const DeflateOptions block_options{options.level};
  for_each_block(blocks, threads, [&](std::size_t i) {
    const std::size_t offset = i * block_size;
    const auto chunk = input.subspan(offset, std::min(block_size, input.size() - offset));
    const bool timed = telemetry::enabled();
    const auto start =
        timed ? std::chrono::steady_clock::now() : std::chrono::steady_clock::time_point{};
    crcs[i] = crc32(chunk);
    bodies[i] = deflate_compress(chunk, block_options);
    if (timed) WCK_HISTOGRAM_RECORD("deflate.block.seconds", seconds_since(start));
  });

  ByteWriter writer;
  writer.u32(kShardedMagic);
  writer.u8(kShardedVersion);
  writer.u8(0);  // flags
  writer.varint(block_size);
  writer.varint(input.size());
  writer.varint(blocks);
  for (std::size_t i = 0; i < blocks; ++i) {
    const std::size_t offset = i * block_size;
    writer.varint(bodies[i].size());
    writer.varint(std::min(block_size, input.size() - offset));
    writer.u32(crcs[i]);
  }
  for (const Bytes& body : bodies) writer.raw(body);
  return writer.take();
}

Bytes sharded_deflate_decompress(std::span<const std::byte> input, std::size_t threads) {
  WCK_TRACE_SPAN("deflate.sharded.decompress");
  ByteReader reader(input);
  if (reader.u32() != kShardedMagic) {
    throw FormatError("sharded deflate: bad magic");
  }
  const std::uint8_t version = reader.u8();
  if (version != kShardedVersion) {
    throw FormatError("sharded deflate: unsupported version " + std::to_string(version));
  }
  (void)reader.u8();  // flags, reserved
  const std::uint64_t block_size = reader.varint();
  const std::uint64_t total = reader.varint();
  const std::uint64_t count = reader.varint();
  if (block_size == 0) {
    throw FormatError("sharded deflate: zero block size");
  }
  const std::uint64_t derived = (total + block_size - 1) / block_size;
  if (count != derived) {
    throw FormatError("sharded deflate: block count " + std::to_string(count) +
                      " does not match payload (" + std::to_string(derived) + " expected)");
  }
  // A frame cannot legitimately claim more output than the whole input
  // could expand to, and its table cannot be larger than what remains.
  if (total > input.size() * kMaxExpansionRatio + 1024) {
    throw FormatError("sharded deflate: implausible total size " + std::to_string(total));
  }
  if (count > reader.remaining() / kMinTableEntryBytes) {
    throw FormatError("sharded deflate: block count " + std::to_string(count) +
                      " exceeds container capacity");
  }

  std::vector<BlockEntry> table(static_cast<std::size_t>(count));
  std::uint64_t compressed_total = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    BlockEntry& e = table[static_cast<std::size_t>(i)];
    const std::uint64_t comp = reader.varint();
    const std::uint64_t uncomp = reader.varint();
    e.crc = reader.u32();
    if (comp > input.size()) {  // also keeps comp * kMaxExpansionRatio from overflowing
      throw FormatError("sharded deflate: block " + std::to_string(i) +
                        " compressed size exceeds container");
    }
    const std::uint64_t offset = i * block_size;
    const std::uint64_t expected = std::min<std::uint64_t>(block_size, total - offset);
    if (uncomp != expected) {
      throw FormatError("sharded deflate: block " + std::to_string(i) + " claims " +
                        std::to_string(uncomp) + " uncompressed bytes, expected " +
                        std::to_string(expected));
    }
    if (uncomp > comp * kMaxExpansionRatio + 1024) {
      throw FormatError("sharded deflate: block " + std::to_string(i) +
                        " claims implausible expansion");
    }
    e.compressed_size = static_cast<std::size_t>(comp);
    e.uncompressed_size = static_cast<std::size_t>(uncomp);
    compressed_total += comp;
  }
  if (compressed_total != reader.remaining()) {
    throw FormatError("sharded deflate: body size " + std::to_string(reader.remaining()) +
                      " does not match table total " + std::to_string(compressed_total));
  }

  // Body offsets are prefix sums of the table; every block's source span
  // and destination region are known up front, so blocks decode fully
  // independently into disjoint slices of the preallocated output.
  std::vector<std::size_t> body_offsets(table.size());
  std::size_t running = 0;
  for (std::size_t i = 0; i < table.size(); ++i) {
    body_offsets[i] = running;
    running += table[i].compressed_size;
  }
  const auto bodies = reader.raw(static_cast<std::size_t>(compressed_total));

  if (threads == 0) threads = resolve_deflate_threads(0);
  WCK_COUNTER_ADD("deflate.blocks", table.size());
  WCK_GAUGE_SET("deflate.threads", static_cast<double>(std::max<std::size_t>(threads, 1)));

  Bytes out(static_cast<std::size_t>(total));
  for_each_block(table.size(), threads, [&](std::size_t i) {
    const BlockEntry& e = table[i];
    const auto body = bodies.subspan(body_offsets[i], e.compressed_size);
    const bool timed = telemetry::enabled();
    const auto start =
        timed ? std::chrono::steady_clock::now() : std::chrono::steady_clock::time_point{};
    const Bytes block = deflate_decompress(body, e.uncompressed_size);
    if (crc32(block) != e.crc) {
      throw CorruptDataError("sharded deflate: CRC-32 mismatch in block " + std::to_string(i));
    }
    if (!block.empty()) {
      std::memcpy(out.data() + i * static_cast<std::size_t>(block_size), block.data(),
                  block.size());
    }
    if (timed) WCK_HISTOGRAM_RECORD("deflate.block.seconds", seconds_since(start));
  });
  return out;
}

bool is_sharded_deflate(std::span<const std::byte> data) noexcept {
  if (data.size() < 4) return false;
  std::uint32_t magic = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    magic |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(data[i])) << (8 * i);
  }
  return magic == kShardedMagic;
}

std::size_t resolve_deflate_threads(int requested) {
  if (requested < 0) {
    throw InvalidArgumentError("deflate threads must be >= 0, got " + std::to_string(requested));
  }
  if (requested > 0) return static_cast<std::size_t>(requested);
  const std::optional<std::string> env = env::get("WCK_THREADS");
  if (!env.has_value() || env->empty()) return 1;
  const std::string& value = *env;
  auto hardware = [] {
    const unsigned n = std::thread::hardware_concurrency();
    return static_cast<std::size_t>(n == 0 ? 1 : n);
  };
  if (value == "max") return hardware();
  char* end = nullptr;
  const long parsed = std::strtol(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0' || parsed < 0) {
    throw InvalidArgumentError("WCK_THREADS=\"" + value +
                               "\" is not a worker count (use a non-negative integer or max)");
  }
  if (parsed == 0) return hardware();
  return static_cast<std::size_t>(parsed);
}

}  // namespace wck
