// Parallel sharded DEFLATE: block-parallel entropy coding of the
// checkpoint hot path.
//
// The deflate/gzip stage dominates per-checkpoint compression time
// (~90 % in the Fig. 9 breakdown, see perf/BENCH_seed.json) yet RFC 1951
// streams are inherently serial. Following the pigz-style sharding used
// by production checkpoint libraries, the input is split into fixed-size
// *data-independent* blocks (default 256 KiB), each block is compressed
// to an independent raw DEFLATE stream — concurrently, on a shared
// thread pool — and the results are framed in the "WCKP" container
// below. Decompression is symmetric: blocks are decoded concurrently,
// CRC-verified, and spliced back in order, so restore time scales too.
//
// Determinism guarantee: for a given (input, block_size) the container
// bytes are identical at ANY thread count, because block boundaries
// depend only on block_size and every block is compressed by the same
// serial per-block encoder. Thread count affects wall-clock only. This
// is the only container WaveletCompressor writes for
// EntropyMode::kDeflate (entropy tag 4), so a payload that fits in one
// block is simply a one-block container.
//
// Container layout (all integers little-endian, varint = LEB128):
//
//   u32    magic "WCKP" (0x504B4357)
//   u8     version (1)
//   u8     flags (0, reserved)
//   varint block_size          uncompressed bytes per full block
//   varint total_size          uncompressed payload size
//   varint block_count         == ceil(total_size / block_size)
//   block_count x {            per-block table
//     varint compressed_size
//     varint uncompressed_size (== block_size except the last block)
//     u32    crc32             of the uncompressed block
//   }
//   block_count x raw DEFLATE streams, concatenated in block order
//
// The trade-off vs a single stream is a fresh LZ77 window per block plus
// ~10 bytes of framing per block: < 2 % size drift at the default block
// size (gated by tools/check_bench_regress.py and bench/micro_deflate).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "util/bytes.hpp"

namespace wck {

/// Default uncompressed bytes per shard. Large enough that the per-block
/// LZ77 window reset and frame overhead stay under ~1 % on checkpoint
/// payloads, small enough that a 1.5 MB per-process array (the paper's
/// Fig. 9 size) still splits into ~7 concurrent blocks.
inline constexpr std::size_t kDefaultDeflateBlockSize = 256 * 1024;

struct ShardedDeflateOptions {
  /// zlib-style effort level 1..9 (as DeflateOptions).
  int level = 6;
  /// Uncompressed bytes per block; must be >= 1. Changing it changes the
  /// output bytes (the determinism guarantee is per (input, block_size)).
  std::size_t block_size = kDefaultDeflateBlockSize;
  /// Worker count for this call: 1 compresses inline on the caller's
  /// thread; N > 1 fans blocks out over the process-shared deflate pool
  /// (effective concurrency additionally bounded by the pool width,
  /// i.e. the machine's core count). Never alters the output bytes.
  std::size_t threads = 1;
};

/// Compresses `input` into a WCKP sharded container. Deterministic for a
/// given (input, options.block_size) regardless of options.threads.
/// Empty input yields a valid zero-block container.
[[nodiscard]] Bytes sharded_deflate_compress(std::span<const std::byte> input,
                                             const ShardedDeflateOptions& options = {});

/// Decompresses a WCKP container, decoding blocks concurrently when
/// `threads` > 1 (0 = resolve_deflate_threads(0)).
/// Throws FormatError on malformed framing or a block that does not
/// inflate to exactly its table size (checked while it decodes), and
/// CorruptDataError when a block fails its CRC-32.
[[nodiscard]] Bytes sharded_deflate_decompress(std::span<const std::byte> input,
                                               std::size_t threads = 0);

/// Resolves a CompressionParams/CLI-style worker request to a count:
///   requested >= 1  -> that many workers (1 = inline on the caller)
///   requested == 0  -> WCK_THREADS: unset or empty means 1; "0" or
///                      "max" means hardware concurrency; any positive
///                      integer is taken as-is
/// Throws InvalidArgumentError for a negative request or a WCK_THREADS
/// value that is none of the above. The count never changes the bytes.
[[nodiscard]] std::size_t resolve_deflate_threads(int requested);

}  // namespace wck
