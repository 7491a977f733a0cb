#include "server/observe.hpp"

#include <cstdio>
#include <string>
#include <variant>

#include "telemetry/event_log.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"

namespace wck::server {
namespace {

using telemetry::MetricsRegistry;

/// Request+reply sizes land here: log-spaced bytes from 64 B to 64 MiB
/// (a put of kMaxFramePayload overflows into the +Inf bucket, which is
/// fine — quantiles clamp to the observed max).
std::span<const double> byte_bounds() noexcept {
  static constexpr double kBounds[] = {64.0,     256.0,      1024.0,     4096.0,
                                       16384.0,  65536.0,    262144.0,   1048576.0,
                                       4194304.0, 16777216.0, 67108864.0};
  return kBounds;
}

struct RequestInfo {
  net::MessageType type;
  const char* type_name;    ///< metric segment: "ping", "put", ...
  const char* span_name;    ///< "server.rpc.<type>"
  std::string_view tenant;
  std::uint64_t step;
  telemetry::TraceContext trace;
};

RequestInfo info_of(const net::AnyMessage& request) noexcept {
  if (const auto* put = std::get_if<net::PutRequest>(&request)) {
    return {net::MessageType::kPut, "put", "server.rpc.put", put->tenant, put->step,
            put->trace};
  }
  if (const auto* get = std::get_if<net::GetRequest>(&request)) {
    return {net::MessageType::kGet, "get", "server.rpc.get", get->tenant, 0, get->trace};
  }
  if (const auto* stat = std::get_if<net::StatRequest>(&request)) {
    return {net::MessageType::kStat, "stat", "server.rpc.stat", stat->tenant, 0, stat->trace};
  }
  if (const auto* ping = std::get_if<net::PingRequest>(&request)) {
    return {net::MessageType::kPing, "ping", "server.rpc.ping", {}, 0, ping->trace};
  }
  if (const auto* shutdown = std::get_if<net::ShutdownRequest>(&request)) {
    return {net::MessageType::kShutdown, "shutdown", "server.rpc.shutdown", {}, 0,
            shutdown->trace};
  }
  // A response type sent at the server; the dispatcher answers
  // kBadRequest, and the scope files it under "ping" accounting.
  return {net::MessageType::kPing, "ping", "server.rpc.ping", {}, 0, {}};
}

void record_rpc_metrics(net::MessageType type, double seconds, double bytes, bool error) {
  // One switch per metric family keeps every name a literal (cacheable
  // function-local static, and visible to the metric-name lint).
  switch (type) {
    case net::MessageType::kPut: {
      WCK_HISTOGRAM_RECORD("server.rpc.put.seconds", seconds);
      static telemetry::Histogram& put_bytes =
          MetricsRegistry::global().histogram("server.rpc.put.bytes", byte_bounds());
      put_bytes.record(bytes);
      if (error) WCK_COUNTER_ADD("server.rpc.put.errors", 1);
      break;
    }
    case net::MessageType::kGet: {
      WCK_HISTOGRAM_RECORD("server.rpc.get.seconds", seconds);
      static telemetry::Histogram& get_bytes =
          MetricsRegistry::global().histogram("server.rpc.get.bytes", byte_bounds());
      get_bytes.record(bytes);
      if (error) WCK_COUNTER_ADD("server.rpc.get.errors", 1);
      break;
    }
    case net::MessageType::kStat: {
      WCK_HISTOGRAM_RECORD("server.rpc.stat.seconds", seconds);
      static telemetry::Histogram& stat_bytes =
          MetricsRegistry::global().histogram("server.rpc.stat.bytes", byte_bounds());
      stat_bytes.record(bytes);
      if (error) WCK_COUNTER_ADD("server.rpc.stat.errors", 1);
      break;
    }
    case net::MessageType::kShutdown: {
      WCK_HISTOGRAM_RECORD("server.rpc.shutdown.seconds", seconds);
      if (error) WCK_COUNTER_ADD("server.rpc.shutdown.errors", 1);
      break;
    }
    default: {
      WCK_HISTOGRAM_RECORD("server.rpc.ping.seconds", seconds);
      if (error) WCK_COUNTER_ADD("server.rpc.ping.errors", 1);
      break;
    }
  }
}

}  // namespace

std::string slow_request_detail(const SlowRequest& r) {
  char ms_buf[32];
  std::snprintf(ms_buf, sizeof ms_buf, "%.3f", r.ms);
  std::string detail = "{\"tenant\":";
  detail += telemetry::json_quote(r.tenant);
  detail += ",\"type\":";
  detail += telemetry::json_quote(r.type_name);
  detail += ",\"trace_id\":\"";
  detail += telemetry::trace_id_hex(r.trace_id);
  detail += "\",\"ms\":";
  detail += ms_buf;
  detail += ",\"req_bytes\":";
  detail += std::to_string(r.request_bytes);
  detail += ",\"resp_bytes\":";
  detail += std::to_string(r.reply_bytes);
  if (r.retries) {
    detail += ",\"retries\":";
    detail += std::to_string(*r.retries);
  }
  detail += ",\"error\":";
  detail += r.error ? "true" : "false";
  detail += "}";
  return detail;
}

ServerRpcScope::ServerRpcScope(const net::AnyMessage& request, std::size_t request_bytes,
                               int slow_request_ms) {
  if (!telemetry::enabled()) return;
  active_ = true;
  const RequestInfo info = info_of(request);
  type_ = info.type;
  type_name_ = info.type_name;
  tenant_ = info.tenant;
  step_ = info.step;
  request_bytes_ = request_bytes;
  slow_request_ms_ = slow_request_ms;
  if (info.trace.active()) {
    // Continue the client's trace: same trace_id, a fresh server-side
    // span id, parented to the client's RPC span.
    ctx_ = telemetry::TraceContext{info.trace.trace_id, telemetry::next_span_id(),
                                   info.trace.span_id};
  }
  span_.emplace(info.span_name, ctx_);
  start_us_ = telemetry::Tracer::global().now_us();
}

ServerRpcScope::~ServerRpcScope() {
  if (active_ && !finished_) finish(0, false);
}

void ServerRpcScope::finish(std::size_t reply_bytes, bool error_reply) noexcept {
  if (!active_ || finished_) return;
  finished_ = true;
  const double dur_us = telemetry::Tracer::global().now_us() - start_us_;
  const double seconds = dur_us / 1e6;
  record_rpc_metrics(type_, seconds,
                     static_cast<double>(request_bytes_ + reply_bytes), error_reply);
  const double ms = dur_us / 1e3;
  if (slow_request_ms_ >= 0 && ms >= static_cast<double>(slow_request_ms_)) {
    try {
      WCK_EVENT(kServerSlowRequest, step_,
                slow_request_detail({.tenant = tenant_,
                                     .type_name = type_name_,
                                     .trace_id = ctx_.trace_id,
                                     .ms = ms,
                                     .request_bytes = request_bytes_,
                                     .reply_bytes = reply_bytes,
                                     .retries = std::nullopt,
                                     .error = error_reply}));
    } catch (...) {
      // Slow-request logging is best-effort; an OOM here must not turn
      // a served RPC into a crashed connection.
    }
  }
}

void add_tenant_counter(std::string_view tenant, const char* what, std::uint64_t delta) {
  if (!telemetry::enabled() || tenant.empty()) return;
  std::string name = "server.tenant.";
  name += tenant;
  name += '.';
  name += what;
  MetricsRegistry::global().counter(name).add(delta);
}

void set_tenant_gauge(std::string_view tenant, const char* what, double value) {
  if (!telemetry::enabled() || tenant.empty()) return;
  std::string name = "server.tenant.";
  name += tenant;
  name += '.';
  name += what;
  MetricsRegistry::global().gauge(name).set(value);
}

}  // namespace wck::server
