// Deterministic decode-robustness fuzz driver.
//
// Builds a corpus of valid encoded artifacts — a Fig. 5 payload, full
// WaveletCompressor streams (serial and sharded-parallel), a multi-field
// checkpoint, raw DEFLATE with the gzip/zlib/WCKP containers and FPC
// streams — then applies seeded random mutations (bit
// flips, truncations, length-field corruption; see util/mutate.hpp) and
// feeds each mutant to its decoder. The contract:
// every decoder either throws a typed wck::Error or returns a valid
// result. Any other exception, crash, or sanitizer report is a defect.
//
// Run under ASan/UBSan for the real assurance:
//   cmake --preset asan-ubsan && cmake --build --preset asan-ubsan
//   ./build/asan-ubsan/tools/wckpt_fuzz --mutations 10000 --seed 42
//
// Exit code 0 = all mutants handled cleanly; 1 = contract violation.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "ckpt/codec.hpp"
#include "core/compressor.hpp"
#include "core/synthetic.hpp"
#include "deflate/deflate.hpp"
#include "deflate/huffman_only.hpp"
#include "deflate/parallel.hpp"
#include "encode/payload.hpp"
#include "fpc/fpc.hpp"
#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "util/checksum.hpp"
#include "util/error.hpp"
#include "util/mutate.hpp"
#include "util/rng.hpp"

namespace wck {
namespace {

struct CorpusEntry {
  std::string name;
  Bytes data;
  std::function<void(const Bytes&)> decode;
};

LossyPayload reference_payload() {
  LossyPayload p;
  p.shape = Shape{16, 8};
  p.levels = 1;
  p.averages = {0.0, 0.5, -0.5, 1.25, 2.0};
  p.low_band.resize(32);
  for (std::size_t i = 0; i < p.low_band.size(); ++i) {
    p.low_band[i] = 0.125 * static_cast<double>(i);
  }
  p.quantized = Bitmap(96);
  for (std::size_t i = 0; i < 96; i += 3) p.quantized.set(i, true);  // 32 set
  for (std::size_t i = 0; i < 32; ++i) {
    p.indices.push_back(static_cast<std::uint8_t>(i % p.averages.size()));
  }
  p.exact_values.resize(96 - 32, -7.5);
  return p;
}

std::vector<CorpusEntry> build_corpus() {
  std::vector<CorpusEntry> corpus;

  corpus.push_back({"payload", encode_payload(reference_payload()),
                    [](const Bytes& b) { (void)decode_payload(b); }});

  const auto field = make_smooth_field(Shape{32, 32}, 11);
  for (const auto& [mode, name] :
       {std::pair{EntropyMode::kDeflate, "wavelet-deflate"},
        std::pair{EntropyMode::kHuffmanOnly, "wavelet-huffman"},
        std::pair{EntropyMode::kNone, "wavelet-raw"}}) {
    CompressionParams params;
    params.quantizer.divisions = 64;
    params.entropy = mode;
    corpus.push_back({name, WaveletCompressor(params).compress(field).data,
                      [](const Bytes& b) { (void)WaveletCompressor::decompress(b); }});
  }
  {
    // A tag-0 stream whose header claims 2^25 doubles in 28 bytes: the
    // decoder must reject its counts before sizing anything.
    ByteWriter w;
    w.u8(0);  // entropy tag: the payload as stored
    w.u32(0x4C4B4357);
    for (const std::uint8_t b : {2, 0, 0, 1, 1}) w.u8(b);  // version..levels
    for (const std::uint64_t v : {std::uint64_t{1} << 25, std::uint64_t{0},
                                  std::uint64_t{1} << 24, std::uint64_t{1} << 24,
                                  std::uint64_t{0}}) {
      w.varint(v);  // extent, then the averages/low/high/index counts
    }
    w.u32(crc32(std::span<const std::byte>(w.buffer()).subspan(1)));
    corpus.push_back({"wavelet-oversized-counts", w.take(),
                      [](const Bytes& b) { (void)WaveletCompressor::decompress(b); }});
  }
  {
    NdArray<double> a = make_smooth_field(Shape{24, 24}, 21);
    NdArray<double> b = make_temperature_field(Shape{16, 16}, 22);
    CheckpointRegistry reg;
    reg.add("alpha", &a);
    reg.add("beta", &b);
    corpus.push_back({"checkpoint-gzip", serialize_checkpoint(reg, GzipCodec{}, 5),
                      [](const Bytes& bytes) {
                        NdArray<double> ra;
                        NdArray<double> rb;
                        CheckpointRegistry rreg;
                        rreg.add("alpha", &ra);
                        rreg.add("beta", &rb);
                        (void)restore_checkpoint(bytes, rreg);
                      }});
    corpus.push_back({"checkpoint-lossy", serialize_checkpoint(reg, WaveletLossyCodec{}, 6),
                      [](const Bytes& bytes) {
                        NdArray<double> ra;
                        NdArray<double> rb;
                        CheckpointRegistry rreg;
                        rreg.add("alpha", &ra);
                        rreg.add("beta", &rb);
                        (void)restore_checkpoint(bytes, rreg);
                      }});
  }

  Bytes text(6000);
  Xoshiro256 fill(33);
  for (std::size_t i = 0; i < text.size(); ++i) {
    text[i] = (i % 48 < 40) ? static_cast<std::byte>('a' + i % 17)
                            : static_cast<std::byte>(fill.bounded(256));
  }
  corpus.push_back({"deflate-raw", deflate_compress(text, {}),
                    [](const Bytes& b) { (void)deflate_decompress(b); }});
  corpus.push_back({"gzip", gzip_compress(text, {}),
                    [](const Bytes& b) { (void)gzip_decompress(b); }});
  corpus.push_back({"zlib", zlib_compress(text, {}),
                    [](const Bytes& b) { (void)zlib_decompress(b); }});
  corpus.push_back({"huffman-only", huffman_only_compress(text),
                    [](const Bytes& b) { (void)huffman_only_decompress(b); }});

  // Sharded parallel-deflate frame (WCKP): mutants hit the frame header,
  // per-block table, and block bodies, driving the parallel decode path.
  corpus.push_back({"sharded-deflate", sharded_deflate_compress(text, {6, 1024, 2}),
                    [](const Bytes& b) { (void)sharded_deflate_decompress(b, 2); }});
  {
    CompressionParams params;
    params.quantizer.divisions = 64;
    params.threads = 2;
    params.deflate_block_size = 2048;
    corpus.push_back({"wavelet-sharded", WaveletCompressor(params).compress(field).data,
                      [](const Bytes& b) { (void)WaveletCompressor::decompress(b); }});
  }

  corpus.push_back({"fpc", fpc_compress(field.values()),
                    [](const Bytes& b) { (void)fpc_decompress(b); }});

  // Store-service wire frames: mutants hit the frame header (magic,
  // version, length, CRC) and the message body decoders. The one-shot
  // decode_frame + decode_message pair is exactly what the server runs
  // per request, so "typed errors only" here is the service's
  // malformed-client guarantee.
  const auto decode_wire = [](const Bytes& b) {
    const net::Frame frame = net::decode_frame(b);
    (void)net::decode_message(frame);
  };
  {
    net::PutRequest put;
    put.tenant = "fuzz-tenant";
    put.step = 42;
    put.request_id = 0x1122334455667788ull;  // exercise the idempotency token bytes
    put.shape = Shape{8, 4};
    put.values.assign(put.shape.size(), 1.5);
    corpus.push_back({"net-put",
                      net::encode_frame(static_cast<std::uint8_t>(net::MessageType::kPut),
                                        net::encode(put)),
                      decode_wire});
  }
  {
    net::PutOkResponse ok;
    ok.step = 42;
    ok.generations = 3;
    ok.stored_bytes = 8192;
    ok.total_bytes = 24576;
    ok.request_id = 0x8877665544332211ull;
    ok.deduplicated = true;
    corpus.push_back({"net-put-ok",
                      net::encode_frame(static_cast<std::uint8_t>(net::MessageType::kPutOk),
                                        net::encode(ok)),
                      decode_wire});
  }
  {
    net::StatOkResponse stat;
    stat.tenants = 3;
    for (int i = 0; i < 3; ++i) {
      net::TenantStat s;
      s.name = "t" + std::to_string(i);
      s.generations = 2;
      s.stored_bytes = 4096;
      s.quota_bytes = 65536;
      s.newest_step = 17;
      stat.stats.push_back(std::move(s));
    }
    corpus.push_back({"net-stat-ok",
                      net::encode_frame(static_cast<std::uint8_t>(net::MessageType::kStatOk),
                                        net::encode(stat)),
                      decode_wire});
  }
  {
    net::GetOkResponse get;
    get.step = 9;
    get.source = 1;
    get.shape = Shape{4, 4, 2};
    get.values.assign(get.shape.size(), -2.25);
    // The incremental decoder sees the same mutants, byte-dribbled, so
    // its header-first validation and buffering logic get coverage the
    // one-shot path cannot give.
    corpus.push_back({"net-get-ok-streamed",
                      net::encode_frame(static_cast<std::uint8_t>(net::MessageType::kGetOk),
                                        net::encode(get)),
                      [](const Bytes& b) {
                        net::FrameDecoder decoder;
                        std::size_t off = 0;
                        while (off < b.size()) {
                          const std::size_t n = std::min<std::size_t>(7, b.size() - off);
                          decoder.feed(std::span<const std::byte>(b).subspan(off, n));
                          off += n;
                          while (const std::optional<net::Frame> f = decoder.next()) {
                            (void)net::decode_message(*f);
                          }
                        }
                      }});
  }
  {
    // Requests carrying a trace-context suffix (3 × u64 after the base
    // body): mutants land on the suffix boundary, where the decoder
    // must distinguish "absent" (exhausted) from "truncated" (1..23
    // trailing bytes, typed FormatError) from "trailing garbage".
    net::PutRequest put;
    put.tenant = "fuzz-tenant";
    put.step = 43;
    put.request_id = 0x1122334455667789ull;
    put.shape = Shape{4, 4};
    put.values.assign(put.shape.size(), 0.5);
    put.trace = {0xAABBCCDDEEFF0011ull, 0x2233445566778899ull, 0x99AABBCCDDEEFF00ull};
    corpus.push_back({"net-put-traced",
                      net::encode_frame(static_cast<std::uint8_t>(net::MessageType::kPut),
                                        net::encode(put)),
                      decode_wire});
    net::GetRequest get;
    get.tenant = "fuzz-tenant";
    get.trace = {0x0102030405060708ull, 0x1112131415161718ull, 0};
    corpus.push_back({"net-get-traced",
                      net::encode_frame(static_cast<std::uint8_t>(net::MessageType::kGet),
                                        net::encode(get)),
                      decode_wire});
  }
  {
    // StatOk with the trailing per-tenant health block (parallel
    // arrays after the base entries): mutants probe the optional-block
    // boundary and the health strings.
    net::StatOkResponse stat;
    stat.tenants = 2;
    for (int i = 0; i < 2; ++i) {
      net::TenantStat s;
      s.name = "h" + std::to_string(i);
      s.generations = 4;
      s.stored_bytes = 2048;
      s.quota_bytes = 32768;
      s.newest_step = 21;
      s.quarantined = static_cast<std::uint64_t>(i);
      s.scrub_age_ms = i == 0 ? net::TenantStat::kNeverScrubbed : 1500;
      s.last_error = i == 0 ? "" : "quota-exceeded";
      stat.stats.push_back(std::move(s));
    }
    corpus.push_back({"net-stat-ok-health",
                      net::encode_frame(static_cast<std::uint8_t>(net::MessageType::kStatOk),
                                        net::encode(stat)),
                      decode_wire});
  }
  {
    // A frame cut off mid-body: the incremental decoder must park it as
    // pending (or reject the header) without reading past the end.
    net::PingRequest ping;
    Bytes whole = net::encode_frame(static_cast<std::uint8_t>(net::MessageType::kPing),
                                    net::encode(ping));
    net::GetRequest get;
    get.tenant = "fuzz-tenant";
    Bytes cut = net::encode_frame(static_cast<std::uint8_t>(net::MessageType::kGet),
                                  net::encode(get));
    cut.resize(cut.size() - cut.size() / 3);
    Bytes truncated = whole;
    truncated.insert(truncated.end(), cut.begin(), cut.end());
    corpus.push_back({"net-truncated-frame", std::move(truncated), [](const Bytes& b) {
                        net::FrameDecoder decoder;
                        decoder.feed(b);
                        while (const std::optional<net::Frame> f = decoder.next()) {
                          (void)net::decode_message(*f);
                        }
                      }});
  }
  {
    // Garbage bytes, then "reconnect": the first decoder poisons on the
    // junk (typed FormatError, swallowed — the client would hang up),
    // and a fresh decoder takes the rest of the bytes as a new
    // connection. This is exactly StoreClient::ensure_connected's
    // contract: a reconnect never inherits buffered bytes or poisoning.
    Bytes garbage(48);
    Xoshiro256 junk(77);
    for (std::byte& byte : garbage) byte = static_cast<std::byte>(junk.bounded(256));
    garbage[0] = std::byte{0xFF};  // never a valid magic byte
    const Bytes pong = net::encode_frame(static_cast<std::uint8_t>(net::MessageType::kPong),
                                         net::encode(net::PongResponse{}));
    Bytes both = garbage;
    both.insert(both.end(), pong.begin(), pong.end());
    corpus.push_back({"net-garbage-then-reconnect", std::move(both), [](const Bytes& b) {
                        const std::size_t split = std::min<std::size_t>(48, b.size());
                        const auto bytes = std::span<const std::byte>(b);
                        {
                          net::FrameDecoder first;
                          try {
                            first.feed(bytes.subspan(0, split));
                            while (const std::optional<net::Frame> f = first.next()) {
                              (void)net::decode_message(*f);
                            }
                          } catch (const Error&) {
                            // Poisoned stream: the client drops the connection.
                          }
                        }
                        net::FrameDecoder fresh;  // the reconnect
                        fresh.feed(bytes.subspan(split));
                        while (const std::optional<net::Frame> f = fresh.next()) {
                          (void)net::decode_message(*f);
                        }
                      }});
  }
  return corpus;
}

int run(std::uint64_t mutations, std::uint64_t seed, bool verbose) {
  const std::vector<CorpusEntry> corpus = build_corpus();
  Xoshiro256 rng(seed);
  std::uint64_t rejected = 0;
  std::uint64_t accepted = 0;

  for (std::uint64_t t = 0; t < mutations; ++t) {
    const CorpusEntry& entry = corpus[t % corpus.size()];
    Bytes bad = entry.data;
    const int n_mut = 1 + static_cast<int>(rng.bounded(3));
    std::string desc;
    for (int i = 0; i < n_mut; ++i) {
      const Mutation m = mutate(bad, rng);
      if (!desc.empty()) desc += ", ";
      desc += describe(m);
    }
    try {
      entry.decode(bad);
      ++accepted;
    } catch (const Error&) {
      ++rejected;
    } catch (const std::exception& e) {
      std::fprintf(stderr,
                   "FAIL: %s: non-library exception (%s) on trial %llu seed %llu [%s]\n",
                   entry.name.c_str(), e.what(), static_cast<unsigned long long>(t),
                   static_cast<unsigned long long>(seed), desc.c_str());
      return 1;
    } catch (...) {
      std::fprintf(stderr, "FAIL: %s: unknown exception on trial %llu seed %llu [%s]\n",
                   entry.name.c_str(), static_cast<unsigned long long>(t),
                   static_cast<unsigned long long>(seed), desc.c_str());
      return 1;
    }
    if (verbose && (t + 1) % 1000 == 0) {
      std::fprintf(stderr, "  %llu/%llu mutants...\n", static_cast<unsigned long long>(t + 1),
                   static_cast<unsigned long long>(mutations));
    }
  }

  std::printf("wckpt_fuzz: %llu mutants over %zu artifacts (seed %llu): "
              "%llu rejected, %llu decoded, 0 contract violations\n",
              static_cast<unsigned long long>(mutations), corpus.size(),
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(rejected),
              static_cast<unsigned long long>(accepted));
  return 0;
}

}  // namespace
}  // namespace wck

int main(int argc, char** argv) {
  std::uint64_t mutations = 10000;
  std::uint64_t seed = 0xC0FFEE;
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_u64 = [&](const char* flag) -> std::uint64_t {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(2);
      }
      return std::strtoull(argv[++i], nullptr, 10);
    };
    if (arg == "--mutations") {
      mutations = next_u64("--mutations");
    } else if (arg == "--seed") {
      seed = next_u64("--seed");
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: wckpt_fuzz [--mutations N] [--seed S] [--verbose]\n");
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }
  try {
    return wck::run(mutations, seed, verbose);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "FAIL: corpus construction threw: %s\n", e.what());
    return 1;
  }
}
