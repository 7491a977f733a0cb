// Server-side RPC observability: one ServerRpcScope per handled request
// frame turns the request into
//   - a "server.rpc.<type>" boundary span that *continues* the client's
//     wire-propagated TraceContext (same trace_id, client span as
//     parent), so merged client+server timelines line up,
//   - "server.rpc.<type>.seconds" / ".bytes" histograms (p50/p95/p99
//     companions come free from the exposition layer) and an ".errors"
//     counter when the reply is an ErrorResponse,
//   - a structured slow-request record in the flight recorder
//     (kServerSlowRequest) when the RPC exceeds a configurable
//     threshold.
//
// Everything here honours WCK_TELEMETRY=off with zero allocations: the
// scope constructor early-returns before touching the request, and the
// per-tenant helpers return before building the metric name.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "net/protocol.hpp"
#include "telemetry/trace.hpp"

namespace wck::server {

/// RAII instrumentation for one server-side RPC. Construct after
/// decode, call finish() with the encoded reply's size once it exists;
/// the destructor closes the trace span (and falls back to
/// finish(0, false) if finish was never called, e.g. when encoding
/// threw).
class ServerRpcScope {
 public:
  ServerRpcScope(const net::AnyMessage& request, std::size_t request_bytes,
                 int slow_request_ms);
  ~ServerRpcScope();

  ServerRpcScope(const ServerRpcScope&) = delete;
  ServerRpcScope& operator=(const ServerRpcScope&) = delete;

  /// Records duration/byte histograms, the error counter, and (when
  /// over threshold) the slow-request event. Idempotent.
  void finish(std::size_t reply_bytes, bool error_reply) noexcept;

  /// The server-side trace context (continuation of the client's), or
  /// zero when the request carried none / telemetry is off.
  [[nodiscard]] const telemetry::TraceContext& context() const noexcept { return ctx_; }

 private:
  net::MessageType type_ = net::MessageType::kPing;
  const char* type_name_ = "ping";
  std::string_view tenant_;  ///< views into the request; caller keeps it alive
  std::uint64_t step_ = 0;
  telemetry::TraceContext ctx_;
  double start_us_ = 0.0;
  std::size_t request_bytes_ = 0;
  int slow_request_ms_ = -1;
  bool active_ = false;
  bool finished_ = false;
  std::optional<telemetry::TraceSpan> span_;
};

/// One slow-request record: the fields both sides log for an RPC over
/// its slow_request_ms threshold. `retries` is the client's count; the
/// server has none and leaves it empty.
struct SlowRequest {
  std::string_view tenant;
  const char* type_name = "";
  std::uint64_t trace_id = 0;
  double ms = 0.0;
  std::size_t request_bytes = 0;
  std::size_t reply_bytes = 0;
  std::optional<std::uint64_t> retries;
  bool error = false;
};

/// The kServerSlowRequest / kClientSlowRequest event detail: a JSON
/// object, string-encoded inside the event line, that consumers parse a
/// second time. The tenant is escaped, since the server logs it as it
/// came off the wire, before the tenant name is validated.
[[nodiscard]] std::string slow_request_detail(const SlowRequest& r);

/// Adds to "server.tenant.<tenant>.<what>" — the per-tenant counter
/// family (puts, gets, rejects, dedup_replays). The name is built
/// dynamically, so this is the one metrics path that allocates; it
/// allocates nothing (and registers nothing) when telemetry is off.
void add_tenant_counter(std::string_view tenant, const char* what, std::uint64_t delta = 1);

/// Sets "server.tenant.<tenant>.<what>" as a gauge (quota_utilization).
void set_tenant_gauge(std::string_view tenant, const char* what, double value);

}  // namespace wck::server
