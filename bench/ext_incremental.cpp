// Extension: the incremental-checkpointing baseline the paper dismisses
// (Sec. V refs [9-11]).
//
// Two workloads:
//  * MiniClimate — every physical array updates everywhere each step,
//    so deltas are as large as full images (the paper's argument);
//  * a sparse-update synthetic — only a small region changes between
//    checkpoints, where incremental checkpointing shines.
#include <cstdio>

#include "bench_common.hpp"
#include "core/synthetic.hpp"
#include "incremental/incremental.hpp"
#include "util/rng.hpp"

using namespace wck;
using namespace wck::bench;

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const auto workload = climate_workload_from_args(args);
  const auto block = static_cast<std::size_t>(args.get_int("block-bytes", 4096));
  const int checkpoints = static_cast<int>(args.get_int("checkpoints", 6));

  print_header("Extension: incremental checkpointing (paper Sec. V baseline)",
               "climate: ~100% dirty blocks (no saving); sparse workload: tiny deltas");

  {
    std::printf("workload A: MiniClimate %zux%zux%zu, checkpoint every 10 steps\n",
                workload.config.nx, workload.config.ny, workload.config.nz);
    MiniClimate model(workload.config);
    model.run(100);

    NdArray<double> zeta = model.vorticity();
    NdArray<double> temp = model.temperature();
    CheckpointRegistry reg;
    reg.add("vorticity", &zeta);
    reg.add("temperature", &temp);

    IncrementalCheckpointer inc(block, /*full_every=*/1000);
    print_row({"ckpt#", "kind", "dirty/total", "bytes", "vs full [%]"}, 14);
    for (int c = 0; c < checkpoints; ++c) {
      zeta = model.vorticity();
      temp = model.temperature();
      const auto r = inc.checkpoint(reg, model.step_count());
      print_row({std::to_string(c), r.is_full ? "full" : "delta",
                 std::to_string(r.dirty_blocks) + "/" + std::to_string(r.total_blocks),
                 std::to_string(r.data.size()),
                 fmt("%.1f", 100.0 * static_cast<double>(r.data.size()) /
                                 static_cast<double>(r.image_bytes))},
                14);
      model.run(10);
    }
  }

  {
    std::printf("\nworkload B: localized updates (one small tile changes per checkpoint)\n");
    NdArray<double> field = make_smooth_field(Shape{128, 128}, 9);
    CheckpointRegistry reg;
    reg.add("field", &field);

    IncrementalCheckpointer inc(block, /*full_every=*/1000);
    Xoshiro256 rng(10);
    print_row({"ckpt#", "kind", "dirty/total", "bytes", "vs full [%]"}, 14);
    for (int c = 0; c < checkpoints; ++c) {
      const auto r = inc.checkpoint(reg, static_cast<std::uint64_t>(c));
      print_row({std::to_string(c), r.is_full ? "full" : "delta",
                 std::to_string(r.dirty_blocks) + "/" + std::to_string(r.total_blocks),
                 std::to_string(r.data.size()),
                 fmt("%.1f", 100.0 * static_cast<double>(r.data.size()) /
                                 static_cast<double>(r.image_bytes))},
                14);
      // Mutate one random 8x8 tile: a region-of-interest update pattern
      // (e.g. a moving front), the favourable case for incremental.
      const std::size_t ti = rng.bounded(120);
      const std::size_t tj = rng.bounded(120);
      for (std::size_t di = 0; di < 8; ++di) {
        for (std::size_t dj = 0; dj < 8; ++dj) {
          field(ti + di, tj + dj) += 0.01;
        }
      }
    }
  }
  return 0;
}
