// Extension: measured (not only modeled) weak scaling of per-rank
// compression, with simulated ranks on a thread pool.
//
// The paper asserts compression is embarrassingly parallel across
// processes (Sec. IV-D). Here R simulated ranks each compress their own
// deterministic 1.5 MB state concurrently on a thread pool; aggregate
// throughput should scale with cores while per-rank cost stays flat.
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/compressor.hpp"
#include "core/synthetic.hpp"
#include "parallel/thread_pool.hpp"
#include "util/timer.hpp"

using namespace wck;
using namespace wck::bench;

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const auto max_ranks = static_cast<std::size_t>(args.get_int("max-ranks", 16));
  const auto nx = static_cast<std::size_t>(args.get_int("nx", 1156));
  const auto ny = static_cast<std::size_t>(args.get_int("ny", 82));
  const auto nz = static_cast<std::size_t>(args.get_int("nz", 2));

  print_header("Extension: measured per-rank compression weak scaling",
               "per-rank time ~flat; aggregate bytes/s scales with cores");

  CompressionParams params;
  params.quantizer.divisions = 128;
  const WaveletCompressor compressor(params);

  ThreadPool pool;
  print_row({"ranks", "wall [ms]", "per-rank [ms]", "aggregate [MB/s]", "mean rate [%]"}, 18);
  for (std::size_t ranks = 1; ranks <= max_ranks; ranks *= 2) {
    std::vector<double> rates(ranks);
    WallTimer timer;
    pool.parallel_for(0, ranks, [&](std::size_t r) {
      // Each rank owns a distinct deterministic state (seeded by rank).
      const auto field = make_temperature_field(Shape{nx, ny, nz}, 1000 + r);
      rates[r] = compressor.compress(field).compression_rate_percent();
    });
    const double wall = timer.seconds();
    double mean_rate = 0.0;
    for (const double r : rates) mean_rate += r;
    mean_rate /= static_cast<double>(ranks);
    const double bytes = static_cast<double>(ranks) * static_cast<double>(nx * ny * nz * 8);
    print_row({std::to_string(ranks), fmt("%.1f", wall * 1e3),
               fmt("%.1f", wall * 1e3 / static_cast<double>(ranks)),
               fmt("%.1f", bytes / wall / 1e6), fmt("%.2f", mean_rate)},
              18);
  }
  std::printf("\n(hardware threads on this host: %zu — scaling saturates there)\n",
              static_cast<std::size_t>(std::thread::hardware_concurrency()));
  return 0;
}
