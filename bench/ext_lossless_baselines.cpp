// Extension of Fig. 6: stronger lossless baselines.
//
// The paper compares only against gzip. This bench widens the field
// with the baselines its related work points to: our from-scratch FPC
// ([17]) and an SZ-style Lorenzo error-bounded compressor (the [31][32]
// family the SZ line later standardized), plus mantissa truncation.
//
// Expectation: lossless methods (gzip, FPC) stay near the raw size;
// every lossy method trades bounded error for a several-fold reduction;
// predictive error-bounded compression (szlike) is the strongest of the
// simple comparators on smooth data — consistent with SZ/ZFP having
// superseded the wavelet+quantization design this paper explored.
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "core/compressor.hpp"
#include "deflate/deflate.hpp"
#include "fpc/fpc.hpp"
#include "stats/error_metrics.hpp"
#include "szlike/lorenzo.hpp"
#include "truncation/truncation.hpp"
#include "zfplike/block_codec.hpp"

using namespace wck;
using namespace wck::bench;

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const auto workload = climate_workload_from_args(args);

  print_header("Extension: lossless and simple-lossy baselines vs the wavelet pipeline",
               "lossless (gzip, fpc) stays near raw size; lossy methods trade "
               "bounded error for several-fold size reduction");
  MiniClimate model(workload.config);
  model.run(workload.warmup_steps);
  const auto& temp = model.temperature();
  std::printf("temperature array: %s (%zu bytes)\n\n", temp.shape().to_string().c_str(),
              temp.size_bytes());

  print_row({"method", "rate [%]", "avg err [%]", "max err [%]"}, 22);

  {  // gzip
    const Bytes gz = gzip_compress(std::as_bytes(temp.values()));
    print_row({"gzip (lossless)", fmt("%.2f", compression_rate_percent(temp.size_bytes(), gz.size())),
               "0", "0"},
              22);
  }
  {  // fpc
    const Bytes f = fpc_compress(temp.values());
    print_row({"fpc (lossless)", fmt("%.2f", compression_rate_percent(temp.size_bytes(), f.size())),
               "0", "0"},
              22);
  }
  {  // fpc + deflate (stacked)
    const Bytes f = fpc_compress(temp.values());
    const Bytes fz = zlib_compress(f);
    print_row({"fpc+deflate",
               fmt("%.2f", compression_rate_percent(temp.size_bytes(), fz.size())), "0", "0"},
              22);
  }
  for (const int keep : {32, 20, 12}) {  // truncation ladder
    const Bytes t = truncation_compress(temp, keep);
    const auto back = truncation_decompress(t);
    const auto err = relative_error(temp.values(), back.values());
    print_row({"truncate keep=" + std::to_string(keep),
               fmt("%.2f", compression_rate_percent(temp.size_bytes(), t.size())),
               fmt("%.5f", err.mean_rel_percent()), fmt("%.5f", err.max_rel_percent())},
              22);
  }
  {  // SZ-style Lorenzo error-bounded comparator (the [31][32] family)
    double lo = temp.values()[0];
    double hi = lo;
    for (const double v : temp.values()) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    for (const double rel_eb : {1e-3, 1e-4}) {
      const double eb = rel_eb * (hi - lo);
      const Bytes s = szlike_compress(temp, SzLikeOptions{eb, 6});
      const auto back = szlike_decompress(s);
      const auto err = relative_error(temp.values(), back.values());
      print_row({"szlike eb=" + fmt("%g", rel_eb),
                 fmt("%.2f", compression_rate_percent(temp.size_bytes(), s.size())),
                 fmt("%.5f", err.mean_rel_percent()), fmt("%.5f", err.max_rel_percent())},
                22);
    }
  }
  for (const int precision : {14, 20}) {  // ZFP-inspired block transform
    const Bytes z = zfplike_compress(temp, ZfpLikeOptions{precision, 6});
    const auto back = zfplike_decompress(z);
    const auto err = relative_error(temp.values(), back.values());
    print_row({"zfplike p=" + std::to_string(precision),
               fmt("%.2f", compression_rate_percent(temp.size_bytes(), z.size())),
               fmt("%.5f", err.mean_rel_percent()), fmt("%.5f", err.max_rel_percent())},
              22);
  }
  for (const auto kind : {QuantizerKind::kSimple, QuantizerKind::kSpike}) {  // the paper
    CompressionParams p;
    p.quantizer.kind = kind;
    p.quantizer.divisions = 128;
    const auto rt = WaveletCompressor(p).round_trip(temp);
    print_row({kind == QuantizerKind::kSimple ? "wavelet simple n=128" : "wavelet proposed n=128",
               fmt("%.2f", rt.compressed.compression_rate_percent()),
               fmt("%.5f", rt.error.mean_rel_percent()), fmt("%.5f", rt.error.max_rel_percent())},
              22);
  }
  return 0;
}
