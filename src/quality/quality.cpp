#include "quality/quality.hpp"

#include <cmath>
#include <cstdio>
#include <map>
#include <utility>

#include "util/error.hpp"
#include "wavelet/haar.hpp"

namespace wck::quality {
namespace {

using telemetry::Json;

/// Non-finite doubles (psnr on exact bands) serialize as JSON null.
Json finite_or_null(double v) { return std::isfinite(v) ? Json(v) : Json(); }

Json error_stats_json(const ErrorStats& e) {
  Json::Object o;
  o["mean_rel"] = e.mean_rel;
  o["max_rel"] = e.max_rel;
  o["max_abs"] = e.max_abs;
  o["rmse"] = e.rmse;
  o["psnr"] = finite_or_null(e.psnr);
  o["value_range"] = e.value_range;
  o["count"] = static_cast<double>(e.count);
  return Json(std::move(o));
}

/// Shared core of the probe and pair paths: per-band grouping of the
/// original vs stored coefficient sequences (both in canonical
/// for_each_high_band order) plus the scheme-level spike view.
VariableQuality analyze_coefficients(const WaveletPlan& plan,
                                     std::span<const double> orig_high,
                                     std::span<const double> stored_high,
                                     const QuantizationScheme& scheme) {
  struct Buf {
    std::vector<double> orig;
    std::vector<double> stored;
    std::size_t quantized = 0;
  };
  // std::map keys sort by (level, mask) — the canonical band order.
  std::map<std::pair<int, unsigned>, Buf> bufs;
  for_each_high_band_id(plan, [&](std::size_t i, int level, unsigned mask) {
    Buf& b = bufs[{level, mask}];
    b.orig.push_back(orig_high[i]);
    b.stored.push_back(stored_high[i]);
    if (scheme.classify(orig_high[i]) >= 0) ++b.quantized;
  });

  VariableQuality vq;
  vq.shape = plan.shape().to_string();
  vq.original_bytes = plan.shape().size() * sizeof(double);
  vq.coefficient_error = relative_error(orig_high, stored_high);
  for (auto& [key, buf] : bufs) {
    BandQuality band;
    band.level = key.first;
    band.axis_mask = key.second;
    band.name = band_name(band.level, band.axis_mask, plan.shape().rank());
    band.count = buf.orig.size();
    band.quantized = buf.quantized;
    band.error = relative_error(buf.orig, buf.stored);
    vq.bands.push_back(std::move(band));
  }

  vq.has_spike = !scheme.empty();
  if (vq.has_spike) {
    vq.spike.partitions = static_cast<int>(scheme.spike_mask().size());
    for (const bool in_spike : scheme.spike_mask()) {
      if (in_spike) ++vq.spike.occupied;
    }
    vq.spike.quant_min = scheme.quant_min();
    vq.spike.quant_max = scheme.quant_max();
    vq.spike.domain_min = scheme.domain_min();
    vq.spike.domain_max = scheme.domain_max();
    vq.spike.averages = scheme.averages().size();
  }
  return vq;
}

/// Stored value of one coefficient under `scheme`: its representative
/// average when quantized, itself when kept exact.
double stored_value(const QuantizationScheme& scheme, double v) {
  const int idx = scheme.classify(v);
  return idx >= 0 ? scheme.averages()[static_cast<std::size_t>(idx)] : v;
}

}  // namespace

Json VariableQuality::to_json() const {
  Json::Object o;
  o["name"] = name;
  o["shape"] = shape;
  o["original_bytes"] = static_cast<double>(original_bytes);
  o["compressed_bytes"] = static_cast<double>(compressed_bytes);
  o["bits_per_value"] = bits_per_value;
  if (has_value_error) o["value_error"] = error_stats_json(value_error);
  o["coefficient_error"] = error_stats_json(coefficient_error);

  Json::Array bands_a;
  for (const BandQuality& b : bands) {
    Json::Object bo;
    bo["name"] = b.name;
    bo["level"] = b.level;
    bo["axis_mask"] = static_cast<double>(b.axis_mask);
    bo["count"] = static_cast<double>(b.count);
    bo["quantized"] = static_cast<double>(b.quantized);
    bo["quantized_fraction"] = b.quantized_fraction();
    bo["error"] = error_stats_json(b.error);
    bo["psnr"] = finite_or_null(b.error.psnr);
    bands_a.push_back(Json(std::move(bo)));
  }
  o["bands"] = Json(std::move(bands_a));

  if (has_spike) {
    Json::Object so;
    so["partitions"] = spike.partitions;
    so["occupied"] = spike.occupied;
    so["occupancy"] = spike.occupancy();
    so["quant_min"] = spike.quant_min;
    so["quant_max"] = spike.quant_max;
    so["domain_min"] = spike.domain_min;
    so["domain_max"] = spike.domain_max;
    so["averages"] = static_cast<double>(spike.averages);
    o["spike"] = Json(std::move(so));
  }
  return Json(std::move(o));
}

void DriftTracker::record(std::uint64_t cycle, const ErrorStats& error) {
  Point p;
  p.cycle = cycle;
  p.mean_rel = error.mean_rel;
  p.rmse = error.rmse;
  p.psnr = error.psnr;
  if (cycles_ == 0) first_ = p;
  last_ = p;
  if (cycles_ == 0 || p.mean_rel > worst_.mean_rel) worst_ = p;
  if (cycles_ % stride_ == 0) {
    if (points_.size() >= kMaxPoints) {
      // Decimate: keep every other point and double the stride, so the
      // reservoir stays bounded while spanning the whole run.
      std::vector<Point> kept;
      kept.reserve(points_.size() / 2);
      for (std::size_t i = 0; i < points_.size(); i += 2) kept.push_back(points_[i]);
      points_ = std::move(kept);
      stride_ *= 2;
      if ((cycles_ % stride_) == 0) points_.push_back(p);
    } else {
      points_.push_back(p);
    }
  }
  ++cycles_;
}

Json DriftTracker::to_json() const {
  if (cycles_ == 0) return Json();
  const auto point_json = [](const Point& p) {
    Json::Object o;
    o["cycle"] = static_cast<double>(p.cycle);
    o["mean_rel"] = p.mean_rel;
    o["rmse"] = p.rmse;
    o["psnr"] = finite_or_null(p.psnr);
    return Json(std::move(o));
  };
  Json::Object o;
  o["cycles"] = static_cast<double>(cycles_);
  o["first"] = point_json(first_);
  o["last"] = point_json(last_);
  o["worst"] = point_json(worst_);
  Json::Array pts;
  for (const Point& p : points_) pts.push_back(point_json(p));
  o["points"] = Json(std::move(pts));
  return Json(std::move(o));
}

Json QualityReport::to_json() const {
  Json::Object doc;
  doc["schema"] = kSchemaName;
  doc["schema_version"] = kSchemaVersion;
  Json::Array vars;
  for (const VariableQuality& v : variables) vars.push_back(v.to_json());
  doc["variables"] = Json(std::move(vars));
  if (!drift.is_null()) doc["drift"] = drift;
  return Json(std::move(doc));
}

std::string QualityReport::to_json_text(int indent) const { return to_json().dump(indent); }

std::string QualityReport::to_text() const {
  std::string out;
  char buf[192];
  const auto line = [&](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof(buf), fmt, args...);
    out += buf;
    out.push_back('\n');
  };
  for (const VariableQuality& v : variables) {
    line("%s %s", v.name.c_str(), v.shape.c_str());
    if (v.compressed_bytes != 0) {
      line("  %-18s %zu -> %zu bytes (%.3f bits/value)", "size", v.original_bytes,
           v.compressed_bytes, v.bits_per_value);
    }
    if (v.has_value_error) {
      line("  %-18s mean_rel %.3e  max_rel %.3e  rmse %.3e  psnr %.2f dB", "value error",
           v.value_error.mean_rel, v.value_error.max_rel, v.value_error.rmse,
           v.value_error.psnr);
    }
    for (const BandQuality& b : v.bands) {
      line("  band %-8s %8zu coeffs  %5.1f %% quantized  rmse %.3e  psnr %7.2f dB",
           b.name.c_str(), b.count, 100.0 * b.quantized_fraction(), b.error.rmse,
           b.error.psnr);
    }
    if (v.has_spike && v.spike.partitions > 0) {
      line("  spike %d/%d partitions occupied (%.1f %%), quant span [%g, %g] of [%g, %g]",
           v.spike.occupied, v.spike.partitions, 100.0 * v.spike.occupancy(),
           v.spike.quant_min, v.spike.quant_max, v.spike.domain_min, v.spike.domain_max);
    }
  }
  return out;
}

VariableQuality analyze_pair(const NdArray<double>& original,
                             const NdArray<double>& reconstructed,
                             const CompressionParams& params, std::string name,
                             std::size_t compressed_bytes) {
  if (original.shape() != reconstructed.shape()) {
    throw InvalidArgumentError("analyze_pair: shapes differ (" +
                               original.shape().to_string() + " vs " +
                               reconstructed.shape().to_string() + ")");
  }
  if (original.size() == 0) throw InvalidArgumentError("analyze_pair: empty array");

  const WaveletPlan plan = WaveletPlan::create(original.shape(), params.wavelet_levels);

  NdArray<double> orig_t = original;
  NdArray<double> recon_t = reconstructed;
  haar_forward(orig_t.view(), params.wavelet_levels);
  haar_forward(recon_t.view(), params.wavelet_levels);

  std::vector<double> orig_high;
  std::vector<double> recon_high;
  orig_high.reserve(plan.high_count());
  recon_high.reserve(plan.high_count());
  for_each_high_band(orig_t.view(), plan.final_low_extents(),
                     [&orig_high](double& v) { orig_high.push_back(v); });
  for_each_high_band(recon_t.view(), plan.final_low_extents(),
                     [&recon_high](double& v) { recon_high.push_back(v); });

  // Quantization analysis is deterministic in (values, config), so the
  // compress-time scheme is reproducible from the original alone.
  const QuantizationScheme scheme =
      QuantizationScheme::analyze(orig_high, params.quantizer);

  VariableQuality vq = analyze_coefficients(plan, orig_high, recon_high, scheme);
  vq.name = std::move(name);
  vq.compressed_bytes = compressed_bytes;
  if (compressed_bytes != 0) {
    vq.bits_per_value =
        8.0 * static_cast<double>(compressed_bytes) / static_cast<double>(original.size());
  }
  vq.has_value_error = true;
  vq.value_error = relative_error(original.values(), reconstructed.values());
  return vq;
}

QualityProbe::QualityProbe(std::string variable_name)
    : variable_name_(std::move(variable_name)) {}

void QualityProbe::on_compress(const NdArray<double>& original, const WaveletPlan& plan,
                               std::span<const double> high,
                               const QuantizationScheme& scheme) {
  (void)original;
  std::vector<double> stored;
  stored.reserve(high.size());
  for (const double v : high) stored.push_back(stored_value(scheme, v));

  VariableQuality vq = analyze_coefficients(plan, high, stored, scheme);
  vq.name = variables_.empty()
                ? variable_name_
                : variable_name_ + "#" + std::to_string(variables_.size());
  variables_.push_back(std::move(vq));
}

QualityReport QualityProbe::take_report() {
  QualityReport report;
  report.variables = std::move(variables_);
  variables_.clear();
  return report;
}

}  // namespace wck::quality
