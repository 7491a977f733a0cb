// Extension: temporal (inter-checkpoint delta) compression.
//
// The paper compresses each checkpoint independently and dismisses
// incremental (dirty-block) checkpointing because CFD state changes
// everywhere. Temporal *lossy-delta* compression splits the difference:
// it exploits inter-checkpoint correlation even when every value
// changed, by compressing state_t - reconstruction_{t-1} through the
// same wavelet pipeline.
//
// Expectation: delta checkpoints land several-fold below independent
// ones, shrinking further for shorter checkpoint intervals (more
// correlation); reconstruction error stays flat along the chain.
#include <cstdio>

#include "bench_common.hpp"
#include "stats/error_metrics.hpp"
#include "temporal/temporal.hpp"

using namespace wck;
using namespace wck::bench;

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const auto workload = climate_workload_from_args(args);
  const int checkpoints = static_cast<int>(args.get_int("checkpoints", 8));

  print_header("Extension: temporal lossy-delta compression between checkpoints",
               "deltas ~2x smaller than independent checkpoints at a bounded, "
               "chain-position-independent error; gain shrinks as the "
               "interval grows (less correlation)");

  for (const std::uint64_t interval : {10ull, 50ull, 200ull}) {
    MiniClimate model(workload.config);
    model.run(workload.warmup_steps);

    TemporalParams params;
    params.base.quantizer.divisions = 128;
    params.key_every = 1000;  // one key, then deltas
    TemporalCompressor tc(params);

    std::printf("checkpoint interval %llu steps:\n",
                static_cast<unsigned long long>(interval));
    print_row({"ckpt#", "kind", "bytes", "rate [%]", "avg err [%]"}, 13);
    for (int c = 0; c < checkpoints; ++c) {
      const auto& state = model.temperature();
      const auto rec = tc.add(state);
      const auto err = relative_error(state.values(), tc.last_reconstruction().values());
      print_row({std::to_string(c), rec.is_key ? "key" : "delta",
                 std::to_string(rec.data.size()),
                 fmt("%.2f", 100.0 * static_cast<double>(rec.data.size()) /
                                 static_cast<double>(rec.original_bytes)),
                 fmt("%.4f", err.mean_rel_percent())},
                13);
      model.run(interval);
    }
    std::printf("\n");
  }
  return 0;
}
