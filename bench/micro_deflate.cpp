// Deflate-engine throughput microbench: serial single-stream deflate vs
// the sharded parallel engine at 1/2/4/8 workers, for both compression
// and decompression, plus the sharding ratio cost (sharded vs serial
// compressed size — each block restarts its LZ77 window, so the sharded
// container is slightly larger; the CI gate holds the drift at <= 2%).
//
// The payload is the actual checkpoint hot-path input: the formatted
// (wavelet + quantize + encode) payload of the paper's 1156x82x2
// per-process array, not synthetic bytes — compression ratio and speed
// are representative of what fig9's gzip stage sees.
//
// When the system zlib is available, reference rows follow: zlib level 6
// on the same payload, zlib's uncompress on the serial stream, and the
// per-call cost of ours and zlib's on 2 KB slices of it, compressing and
// inflating (the small-put regime, where fixed per-call costs dominate).
//
// Emits a wck-bench-record (--bench-json[=PATH]) with throughput gauges
// (deflate.serial.compress.mbps, deflate.sharded.t<N>.compress.mbps,
// ...), the serial/sharded byte sizes in report.params for the
// check_bench_regress.py sharded-drift gate, and (with zlib) the
// serial_compress_s / zlib_compress_s / call_us / zlib_call_us and
// serial_decompress_s / zlib_decompress_s params for its zlib-relative
// speed gates.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#ifdef WCK_HAVE_ZLIB
#include <zlib.h>
#endif

#include "bench_common.hpp"
#include "core/compressor.hpp"
#include "core/synthetic.hpp"
#include "deflate/deflate.hpp"
#include "deflate/parallel.hpp"
#include "encode/payload.hpp"
#include "quantize/quantizer.hpp"
#include "wavelet/transform.hpp"

using namespace wck;
using namespace wck::bench;

namespace {

/// The formatted pre-entropy payload for a field — what the pipeline
/// actually hands to deflate.
Bytes formatted_payload(const NdArray<double>& input) {
  NdArray<double> work = input;
  const int levels = 1;
  const WaveletPlan plan = WaveletPlan::create(input.shape(), levels);
  wavelet_forward(work.view(), WaveletKind::kHaar, levels);

  std::vector<double> high;
  high.reserve(plan.high_count());
  for_each_high_band(work.view(), plan.final_low_extents(),
                     [&high](double& v) { high.push_back(v); });
  const QuantizationScheme scheme = QuantizationScheme::analyze(high, QuantizerConfig{});

  LossyPayload p;
  p.shape = input.shape();
  p.levels = levels;
  p.wavelet = WaveletKind::kHaar;
  p.quantizer = QuantizerKind::kSpike;
  p.averages = scheme.averages();
  p.low_band.reserve(plan.low_count());
  for_each_low_band(work.view(), plan.final_low_extents(),
                    [&p](double& v) { p.low_band.push_back(v); });
  p.quantized = Bitmap(high.size());
  p.indices.reserve(high.size());
  for (std::size_t i = 0; i < high.size(); ++i) {
    const int idx = scheme.classify(high[i]);
    if (idx >= 0) {
      p.quantized.set(i, true);
      p.indices.push_back(static_cast<std::uint8_t>(idx));
    } else {
      p.exact_values.push_back(high[i]);
    }
  }
  return encode_payload(p);
}

double mbps(std::size_t bytes, double seconds) {
  return seconds > 0.0 ? static_cast<double>(bytes) / 1e6 / seconds : 0.0;
}

/// Best-of-N wall time for fn() (best-of, not mean: throughput benches
/// want the least-disturbed run).
template <typename Fn>
double best_seconds(int repeats, const Fn& fn) {
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const double dt =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (r == 0 || dt < best) best = dt;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const auto nx = static_cast<std::size_t>(args.get_int("nx", 1156));
  const auto ny = static_cast<std::size_t>(args.get_int("ny", 82));
  const auto nz = static_cast<std::size_t>(args.get_int("nz", 2));
  const int repeats = static_cast<int>(args.get_int("repeats", 3));
  const auto block_size = static_cast<std::size_t>(
      args.get_int("block-size", static_cast<long>(kDefaultDeflateBlockSize)));

  print_header("micro: deflate engine throughput, serial vs sharded",
               "near-linear compress scaling with threads; sharded size "
               "within 2% of serial");
  telemetry::set_enabled(true);

  const auto field = make_temperature_field(Shape{nx, ny, nz}, 2015);
  const Bytes payload = formatted_payload(field);
  std::printf("formatted payload: %zu bytes (from %zu raw), block size %zu\n\n", payload.size(),
              field.size_bytes(), block_size);

  telemetry::RunReport report;
  report.tool = "bench/micro_deflate";
  report.params["nx"] = std::to_string(nx);
  report.params["ny"] = std::to_string(ny);
  report.params["nz"] = std::to_string(nz);
  report.params["repeats"] = std::to_string(repeats);
  report.params["block_size"] = std::to_string(block_size);

  // --- serial single-stream baseline (the legacy zlib container).
  Bytes serial;
  const double serial_comp_s =
      best_seconds(repeats, [&] { serial = zlib_compress(payload, {}); });
  const double serial_decomp_s =
      best_seconds(repeats, [&] { (void)zlib_decompress(serial); });
  std::printf("%-22s %10.1f MB/s comp %10.1f MB/s decomp  (%zu bytes)\n", "serial zlib",
              mbps(payload.size(), serial_comp_s), mbps(payload.size(), serial_decomp_s),
              serial.size());
  WCK_GAUGE_SET("deflate.serial.compress.mbps", mbps(payload.size(), serial_comp_s));
  WCK_GAUGE_SET("deflate.serial.decompress.mbps", mbps(payload.size(), serial_decomp_s));

  // --- sharded engine at 1/2/4/8 workers. Identical output bytes at
  // every thread count (asserted), so size is reported once.
  Bytes sharded_reference;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                    std::size_t{8}}) {
    Bytes sharded;
    const double comp_s = best_seconds(
        repeats, [&] { sharded = sharded_deflate_compress(payload, {6, block_size, threads}); });
    const double decomp_s =
        best_seconds(repeats, [&] { (void)sharded_deflate_decompress(sharded, threads); });
    if (sharded_reference.empty()) {
      sharded_reference = sharded;
    } else if (sharded != sharded_reference) {
      std::fprintf(stderr, "FATAL: sharded output differs at %zu threads\n", threads);
      return 1;
    }
    const std::string label = "sharded t=" + std::to_string(threads);
    std::printf("%-22s %10.1f MB/s comp %10.1f MB/s decomp  (%zu bytes)\n", label.c_str(),
                mbps(payload.size(), comp_s), mbps(payload.size(), decomp_s), sharded.size());
    const std::string prefix = "deflate.sharded.t" + std::to_string(threads);
    WCK_GAUGE_SET(prefix + ".compress.mbps", mbps(payload.size(), comp_s));
    WCK_GAUGE_SET(prefix + ".decompress.mbps", mbps(payload.size(), decomp_s));
  }

  const double drift =
      static_cast<double>(sharded_reference.size()) / static_cast<double>(serial.size()) - 1.0;
  std::printf("\nsharded vs serial size: %zu vs %zu bytes (%+.2f%%, gate: <= 2%%)\n",
              sharded_reference.size(), serial.size(), drift * 100.0);
  WCK_GAUGE_SET("deflate.sharded.size_drift", drift);

  // The regress gate reads these to hold sharded-container drift <= 2%.
  report.params["serial_bytes"] = std::to_string(serial.size());
  report.params["sharded_bytes"] = std::to_string(sharded_reference.size());

#ifdef WCK_HAVE_ZLIB
  // --- system zlib at level 6: the speed reference for the serial row.
  std::vector<Bytef> ref(compressBound(static_cast<uLong>(payload.size())));
  const auto zlib_ref = [&ref](std::span<const std::byte> in) {
    uLongf out_len = static_cast<uLongf>(ref.size());
    if (compress2(ref.data(), &out_len, reinterpret_cast<const Bytef*>(in.data()),
                  static_cast<uLong>(in.size()), 6) != Z_OK) {
      std::fprintf(stderr, "FATAL: system zlib compress2 failed\n");
      std::exit(1);
    }
    return static_cast<std::size_t>(out_len);
  };
  std::size_t zlib_bytes = 0;
  const double zlib_comp_s = best_seconds(repeats, [&] { zlib_bytes = zlib_ref(payload); });
  std::printf("%-22s %10.1f MB/s comp  (%zu bytes; serial takes %.2fx its time)\n",
              "system zlib -6", mbps(payload.size(), zlib_comp_s), zlib_bytes,
              serial_comp_s / zlib_comp_s);
  WCK_GAUGE_SET("deflate.zlib_ref.compress.mbps", mbps(payload.size(), zlib_comp_s));

  // --- per-call cost on 2 KB slices: ours vs zlib, mean over all slices.
  constexpr std::size_t kSlice = 2048;
  const std::size_t slices = payload.size() / kSlice;
  const auto slice = [&payload](std::size_t i) {
    return std::span<const std::byte>(payload).subspan(i * kSlice, kSlice);
  };
  const double ours_call_s = best_seconds(repeats, [&] {
    for (std::size_t i = 0; i < slices; ++i) (void)zlib_compress(slice(i), {});
  }) / static_cast<double>(slices);
  const double zlib_call_s = best_seconds(repeats, [&] {
    for (std::size_t i = 0; i < slices; ++i) (void)zlib_ref(slice(i));
  }) / static_cast<double>(slices);
  std::printf("%-22s %10.1f us/call ours %8.1f us/call zlib  (%.2fx, %zu slices)\n",
              "2 KB per call", ours_call_s * 1e6, zlib_call_s * 1e6, ours_call_s / zlib_call_s,
              slices);
  WCK_GAUGE_SET("deflate.call_us", ours_call_s * 1e6);
  WCK_GAUGE_SET("deflate.zlib_ref.call_us", zlib_call_s * 1e6);

  // --- inflate: system zlib's uncompress on the same serial stream, and
  // per call on the 2 KB slices' streams, each next to ours.
  std::vector<Bytef> inflated(payload.size());
  const auto zlib_inflate = [&inflated](std::span<const std::byte> stream) {
    uLongf out_len = static_cast<uLongf>(inflated.size());
    if (uncompress(inflated.data(), &out_len, reinterpret_cast<const Bytef*>(stream.data()),
                   static_cast<uLong>(stream.size())) != Z_OK) {
      std::fprintf(stderr, "FATAL: system zlib uncompress failed\n");
      std::exit(1);
    }
  };
  const double zlib_decomp_s = best_seconds(repeats, [&] { zlib_inflate(serial); });
  std::printf("%-22s %10.1f MB/s decomp  (serial takes %.2fx its time)\n", "system zlib inflate",
              mbps(payload.size(), zlib_decomp_s), serial_decomp_s / zlib_decomp_s);
  WCK_GAUGE_SET("deflate.zlib_ref.decompress.mbps", mbps(payload.size(), zlib_decomp_s));

  std::vector<Bytes> slice_streams(slices);
  for (std::size_t i = 0; i < slices; ++i) slice_streams[i] = zlib_compress(slice(i), {});
  const double ours_inflate_call_s = best_seconds(repeats, [&] {
    for (const Bytes& s : slice_streams) (void)zlib_decompress(s);
  }) / static_cast<double>(slices);
  const double zlib_inflate_call_s = best_seconds(repeats, [&] {
    for (const Bytes& s : slice_streams) zlib_inflate(s);
  }) / static_cast<double>(slices);
  std::printf("%-22s %10.1f us/call ours %8.1f us/call zlib  (%.2fx)\n", "2 KB inflate call",
              ours_inflate_call_s * 1e6, zlib_inflate_call_s * 1e6,
              ours_inflate_call_s / zlib_inflate_call_s);
  WCK_GAUGE_SET("inflate.call_us", ours_inflate_call_s * 1e6);
  WCK_GAUGE_SET("inflate.zlib_ref.call_us", zlib_inflate_call_s * 1e6);

  // The regress gate holds serial compress and inflate <= 1.25x zlib's
  // time and the per-call compress cost <= 2x zlib's; records without
  // these params skip those checks.
  report.params["serial_compress_s"] = std::to_string(serial_comp_s);
  report.params["zlib_compress_s"] = std::to_string(zlib_comp_s);
  report.params["call_us"] = std::to_string(ours_call_s * 1e6);
  report.params["zlib_call_us"] = std::to_string(zlib_call_s * 1e6);
  report.params["serial_decompress_s"] = std::to_string(serial_decomp_s);
  report.params["zlib_decompress_s"] = std::to_string(zlib_decomp_s);
#endif
  report.original_bytes = payload.size();
  report.compressed_bytes = sharded_reference.size();
  report.payload_bytes = payload.size();
  maybe_emit_bench_json(args, "micro_deflate", std::move(report));
  return 0;
}
