// Ablation: the final entropy stage.
//
// Compares (a) no entropy coding, (b) in-memory deflate (the paper's
// Sec. IV-D suggested improvement: "this cost will be mostly eliminated
// by compressing the temporary checkpoint data with zlib in memory"),
// and (c) gzip through temporary files (the paper's implementation).
//
// Expectation: (b) and (c) produce nearly identical sizes; (c) pays a
// large extra time cost, dominating the compression breakdown as in
// Fig. 9.
#include <cstdio>

#include "bench_common.hpp"
#include "core/compressor.hpp"
#include "core/synthetic.hpp"

using namespace wck;
using namespace wck::bench;

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const auto nx = static_cast<std::size_t>(args.get_int("nx", 1156));
  const auto ny = static_cast<std::size_t>(args.get_int("ny", 82));
  const auto nz = static_cast<std::size_t>(args.get_int("nz", 2));
  const int repeats = static_cast<int>(args.get_int("repeats", 5));

  print_header("Ablation: entropy stage (none / in-memory deflate / temp-file gzip)",
               "deflate ~= gzip size; temp-file path much slower (paper Sec. IV-D)");
  const auto field = make_temperature_field(Shape{nx, ny, nz}, 2015);
  std::printf("array: %zux%zux%zu (%.2f MB), %d repeats\n\n", nx, ny, nz,
              static_cast<double>(field.size_bytes()) / 1e6, repeats);

  print_row({"entropy mode", "rate [%]", "entropy time [ms]", "total time [ms]"}, 20);
  struct Row {
    const char* name;
    EntropyMode mode;
    bool temp_file;  ///< kNone pipeline through the bench-side temp-file gzip
  };
  for (const Row& row : {Row{"none", EntropyMode::kNone, false},
                         Row{"huffman-only", EntropyMode::kHuffmanOnly, false},
                         Row{"in-memory deflate", EntropyMode::kDeflate, false},
                         Row{"temp-file gzip", EntropyMode::kNone, true}}) {
    CompressionParams p;
    p.quantizer.divisions = 128;
    p.entropy = row.mode;
    const WaveletCompressor c(p);

    double rate = 0.0;
    StageTimes stages;
    for (int r = 0; r < repeats; ++r) {
      const auto comp = row.temp_file ? temp_file_gzip_compress(c, field) : c.compress(field);
      stages.merge(comp.times);
      rate = comp.compression_rate_percent();
    }
    const double entropy_ms =
        (stages.get("deflate") + stages.get("temp_file_write")) / repeats * 1e3;
    const double total_ms = stages.total() / repeats * 1e3;
    print_row({row.name, fmt("%.2f", rate), fmt("%.3f", entropy_ms), fmt("%.3f", total_ms)}, 20);
  }
  return 0;
}
