#include "instrument.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <stdexcept>

namespace pb {
namespace {

thread_local int tl_client = -1;

const char* file_tag(const std::filesystem::path& path) {
  const std::string name = path.filename().string();
  if (name.rfind("MANIFEST", 0) == 0) return "manifest";
  if (name.rfind("ckpt.", 0) == 0) return "generation";
  return "other";
}

std::uint64_t fingerprint(const wck::NdArray<double>& x) {
  // FNV-1a over the extents and up to 64 values from each end: cheap
  // enough for the server's put path, distinct for the seeded inputs.
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  };
  for (std::size_t a = 0; a < x.rank(); ++a) {
    const std::size_t e = x.extent(a);
    mix(&e, sizeof e);
  }
  const std::size_t n = x.size();
  const std::size_t k = std::min<std::size_t>(64, n);
  mix(x.data(), k * sizeof(double));
  mix(x.data() + (n - k), k * sizeof(double));
  return h;
}

}  // namespace

double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch).count();
}

void Tracer::record(const Span& span) {
  const std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::take() {
  const std::lock_guard<std::mutex> lk(mu_);
  return std::exchange(spans_, {});
}

void Tracer::bind_thread(int client) noexcept { tl_client = client; }

void Tracer::open(std::uint64_t span_id) noexcept {
  if (tl_client >= 0 && tl_client < kMaxClients) {
    open_[static_cast<std::size_t>(tl_client)].store(span_id, std::memory_order_release);
  }
}

std::uint64_t Tracer::current_parent() const noexcept {
  if (tl_client < 0 || tl_client >= kMaxClients) return 0;
  return open_[static_cast<std::size_t>(tl_client)].load(std::memory_order_acquire);
}

ScopedSpan::ScopedSpan(Tracer& tracer, const char* name, const char* tag)
    : tracer_(tracer), on_(tracer.on()) {
  if (!on_) return;
  span_.id = tracer.next_id();
  span_.parent = tracer.current_parent();
  span_.name = name;
  span_.tag = tag;
  span_.t0 = now_s();
}

ScopedSpan::~ScopedSpan() {
  if (!on_) return;
  span_.t1 = now_s();
  tracer_.record(span_);
}

void Failures::add(const std::string& what) {
  count_.fetch_add(1);
  const std::lock_guard<std::mutex> lk(mu_);
  if (reasons_.size() < 8) reasons_.push_back(what);
}

std::vector<std::string> Failures::reasons() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return reasons_;
}

bool same_bits(const wck::NdArray<double>& x, const wck::NdArray<double>& y) {
  return x.shape() == y.shape() &&
         std::memcmp(x.data(), y.data(), x.size_bytes()) == 0;
}

OracleSet::OracleSet(std::vector<wck::NdArray<double>> inputs, const wck::Codec& codec) {
  oracles_.reserve(inputs.size());
  for (auto& input : inputs) {
    Oracle o;
    o.stream = codec.encode(input);
    o.decoded = codec.decode(o.stream);
    o.info = wck::WaveletCompressor::inspect(o.stream);
    if (o.info.shape != input.shape() || o.decoded.shape() != input.shape() ||
        o.info.payload_bytes == 0 ||
        o.info.high_count != o.info.quantized_count + o.info.exact_count) {
      throw std::runtime_error("oracle: stream of input " + std::to_string(oracles_.size()) +
                               " fails inspection");
    }
    o.error = wck::relative_error(input.values(), o.decoded.values());
    o.input = std::move(input);
    if (!by_fingerprint_.emplace(fingerprint(o.input), oracles_.size()).second) {
      throw std::runtime_error("oracle: two inputs share a fingerprint");
    }
    oracles_.push_back(std::move(o));
  }
}

const Oracle* OracleSet::find(const wck::NdArray<double>& array) const {
  const auto it = by_fingerprint_.find(fingerprint(array));
  if (it == by_fingerprint_.end()) return nullptr;
  const Oracle& o = oracles_[it->second];
  return same_bits(o.input, array) ? &o : nullptr;
}

wck::Bytes CheckedCodec::do_encode(const wck::NdArray<double>& array,
                                   wck::StageTimes* times) const {
  wck::Bytes out;
  {
    ScopedSpan span(tracer_, "codec.encode");
    out = inner_.encode(array, times);
    span.set_counts(static_cast<double>(array.size_bytes()), static_cast<double>(out.size()));
  }
  failures_.attempt();
  const Oracle* oracle = oracles_.find(array);
  if (oracle == nullptr) {
    failures_.add("codec: encode of an input with no oracle");
  } else if (out != oracle->stream) {
    failures_.add("codec: stored stream differs from the oracle stream");
  }
  return out;
}

wck::NdArray<double> CheckedCodec::do_decode(std::span<const std::byte> data) const {
  return inner_.decode(data);
}

void TimedIo::bind(const std::filesystem::path& path) const {
  if (tenant_client_.empty()) return;
  for (const auto& part : {path.filename(), path.parent_path().filename()}) {
    const auto it = tenant_client_.find(part.string());
    if (it != tenant_client_.end()) {
      Tracer::bind_thread(it->second);
      return;
    }
  }
}

wck::Bytes TimedIo::read_file(const std::filesystem::path& path) {
  bind(path);
  ScopedSpan span(tracer_, "io.read", file_tag(path));
  wck::Bytes data = wck::posix_backend().read_file(path);
  span.set_counts(static_cast<double>(data.size()), 0.0);
  return data;
}

void TimedIo::write_file(const std::filesystem::path& path, std::span<const std::byte> data) {
  bind(path);
  ScopedSpan span(tracer_, "io.write", file_tag(path));
  span.set_counts(static_cast<double>(data.size()), 0.0);
  wck::posix_backend().write_file(path, data);
}

void TimedIo::fsync_file(const std::filesystem::path& path) {
  bind(path);
  ScopedSpan span(tracer_, "io.fsync", file_tag(path));
  wck::posix_backend().fsync_file(path);
}

void TimedIo::fsync_dir(const std::filesystem::path& dir) {
  bind(dir);
  ScopedSpan span(tracer_, "io.fsync_dir");
  wck::posix_backend().fsync_dir(dir);
}

void TimedIo::rename_file(const std::filesystem::path& from, const std::filesystem::path& to) {
  bind(to);
  ScopedSpan span(tracer_, "io.rename", file_tag(to));
  wck::posix_backend().rename_file(from, to);
}

bool TimedIo::remove_file(const std::filesystem::path& path) {
  bind(path);
  ScopedSpan span(tracer_, "io.remove", file_tag(path));
  return wck::posix_backend().remove_file(path);
}

bool TimedIo::exists(const std::filesystem::path& path) {
  bind(path);
  ScopedSpan span(tracer_, "io.exists", file_tag(path));
  return wck::posix_backend().exists(path);
}

}  // namespace pb
