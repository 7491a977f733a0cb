// Extension: restart-side costs per codec and per incremental-chain
// length.
//
// The paper (Sec. V) notes that incremental checkpointing "tends to
// increase restart costs, since the recovery requires several
// consecutive checkpoint images" — this bench quantifies that, and also
// reports plain decode times for every codec (restart latency matters
// as much as checkpoint latency once MTBF is short).
#include <cstdio>

#include "bench_common.hpp"
#include "ckpt/checkpoint.hpp"
#include "ckpt/codec.hpp"
#include "core/synthetic.hpp"
#include "incremental/incremental.hpp"
#include "truncation/truncation.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

using namespace wck;
using namespace wck::bench;

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const auto nx = static_cast<std::size_t>(args.get_int("nx", 1156));
  const auto ny = static_cast<std::size_t>(args.get_int("ny", 82));
  const auto nz = static_cast<std::size_t>(args.get_int("nz", 2));
  const int repeats = static_cast<int>(args.get_int("repeats", 5));

  print_header("Extension: restart (decode) costs",
               "lossless decode ~ read speed; lossy decode adds inverse "
               "transform; incremental restart grows with chain length");

  NdArray<double> state = make_temperature_field(Shape{nx, ny, nz}, 1);
  CheckpointRegistry reg;
  reg.add("state", &state);

  std::printf("state: %s (%.2f MB)\n\n", state.shape().to_string().c_str(),
              static_cast<double>(state.size_bytes()) / 1e6);

  // --- per-codec encode/decode times ---
  const NullCodec null_codec;
  const GzipCodec gzip_codec;
  const FpcCodec fpc_codec;
  const TruncationCodec trunc_codec;
  CompressionParams params;
  params.quantizer.divisions = 128;
  const WaveletLossyCodec lossy_codec(params);

  print_row({"codec", "encode [ms]", "decode [ms]", "bytes"}, 16);
  for (const Codec* codec :
       {static_cast<const Codec*>(&null_codec), static_cast<const Codec*>(&gzip_codec),
        static_cast<const Codec*>(&fpc_codec), static_cast<const Codec*>(&trunc_codec),
        static_cast<const Codec*>(&lossy_codec)}) {
    Bytes payload;
    WallTimer enc;
    for (int r = 0; r < repeats; ++r) payload = codec->encode(state);
    const double enc_ms = enc.seconds() / repeats * 1e3;
    WallTimer dec;
    for (int r = 0; r < repeats; ++r) (void)codec->decode(payload);
    const double dec_ms = dec.seconds() / repeats * 1e3;
    print_row({codec->name(), fmt("%.2f", enc_ms), fmt("%.2f", dec_ms),
               std::to_string(payload.size())},
              16);
  }

  // --- incremental chain restart cost vs chain length ---
  std::printf("\nincremental restart vs chain length (4 KiB blocks, ~1%% of the\n");
  std::printf("state mutated between checkpoints):\n\n");
  print_row({"chain length", "restore [ms]", "chain bytes"}, 16);
  IncrementalCheckpointer inc(4096, /*full_every=*/1u << 20);
  std::vector<IncrementalCheckpoint> chain;
  Xoshiro256 rng(3);
  chain.push_back(inc.checkpoint(reg, 0));
  for (int len = 1; len <= 32; ++len) {
    for (std::size_t k = 0; k < state.size() / 100; ++k) {
      state[rng.bounded(state.size())] += 1e-3;
    }
    chain.push_back(inc.checkpoint(reg, static_cast<std::uint64_t>(len)));
    if ((len & (len - 1)) == 0) {  // powers of two
      NdArray<double> target(state.shape());
      CheckpointRegistry rreg;
      rreg.add("state", &target);
      WallTimer t;
      (void)IncrementalCheckpointer::restore_chain(chain, rreg);
      std::size_t total = 0;
      for (const auto& c : chain) total += c.data.size();
      print_row({std::to_string(chain.size()), fmt("%.2f", t.seconds() * 1e3),
                 std::to_string(total)},
                16);
    }
  }
  return 0;
}
