// Request/response messages of the checkpoint store wire protocol.
//
// One message per frame (src/net/frame.hpp); the frame's type byte is
// the MessageType. Payloads use the ByteWriter/ByteReader little-endian
// conventions shared with the checkpoint containers, so every malformed
// body surfaces as a typed FormatError — never a misparse.
//
// The protocol is deliberately small: a tenant namespace stores one
// logical state field per step ("state" in the server's
// CheckpointRegistry); Put ships the field's shape plus raw
// little-endian doubles, Get returns the newest restorable generation
// (the server's whole restore chain — older generations, XOR parity —
// stands behind it), Stat reports per-tenant quota/generation
// accounting. Errors travel as an ErrorResponse carrying a typed code
// that clients map back onto the wck error hierarchy (Busy ->
// BusyError, QuotaExceeded -> QuotaExceededError, ...), so backpressure
// and quota enforcement are first-class, machine-readable outcomes.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "ndarray/shape.hpp"
#include "net/frame.hpp"
#include "telemetry/trace.hpp"
#include "util/bytes.hpp"

namespace wck::net {

/// Distributed-trace identity carried by every request. On the wire it
/// is an optional 24-byte suffix: a fully-zero context encodes as
/// *absent* (byte-identical to the pre-trace format), and an absent
/// suffix decodes as the zero context — so old peers and telemetry-off
/// processes interoperate in both directions.
using telemetry::TraceContext;

/// Frame type byte. Requests are < 0x40, responses >= 0x40. Stable wire
/// values: append, never renumber.
enum class MessageType : std::uint8_t {
  kPing = 0x01,
  kPut = 0x02,
  kGet = 0x03,
  kStat = 0x04,
  kShutdown = 0x05,

  kPong = 0x41,
  kPutOk = 0x42,
  kGetOk = 0x43,
  kStatOk = 0x44,
  kShutdownOk = 0x45,
  kError = 0x46,
};

/// Typed failure codes carried by ErrorResponse. Stable wire values.
enum class ErrorCode : std::uint8_t {
  kBadRequest = 1,     ///< malformed/invalid request (client bug)
  kNotFound = 2,       ///< unknown tenant / nothing restorable requested
  kQuotaExceeded = 3,  ///< tenant byte quota would be exceeded; store untouched
  kBusy = 4,           ///< admission control rejected the request; retriable
  kCorrupt = 5,        ///< nothing restorable (every fallback exhausted)
  kIo = 6,             ///< server-side I/O failure after retries
  kInternal = 7,       ///< unexpected server error
  kTimeout = 8,        ///< connection deadline expired (slow sender/reader)
};

[[nodiscard]] const char* error_code_name(ErrorCode code) noexcept;

// ------------------------------------------------------------- requests

struct PingRequest {
  TraceContext trace = {};
};

struct PutRequest {
  std::string tenant;
  std::uint64_t step = 0;
  /// Client-generated idempotency token, echoed back in PutOkResponse.
  /// A retry after a lost response resends the same id; the server
  /// remembers the id that committed each (tenant, step) and answers a
  /// duplicate with the original outcome instead of re-committing.
  /// 0 = no token (never deduplicated) — the pre-retry wire behaviour.
  /// Unlike the trace context, the id survives telemetry-off: dedup is
  /// a correctness feature, tracing an observability one.
  std::uint64_t request_id = 0;
  Shape shape = Shape{1};
  std::vector<double> values;  ///< shape.size() doubles
  TraceContext trace = {};
};

struct GetRequest {
  std::string tenant;
  TraceContext trace = {};
};

struct StatRequest {
  std::string tenant;  ///< empty = server-wide (all tenants)
  TraceContext trace = {};
};

struct ShutdownRequest {
  TraceContext trace = {};
};

// ------------------------------------------------------------ responses

struct PongResponse {};

struct PutOkResponse {
  std::uint64_t step = 0;
  std::uint64_t stored_bytes = 0;   ///< encoded size of this generation
  std::uint64_t total_bytes = 0;    ///< tenant bytes after commit+rotation
  std::uint32_t generations = 0;    ///< tenant generations after rotation
  std::uint64_t request_id = 0;     ///< echo of PutRequest.request_id
  /// True when this reply reports an *earlier* commit of the same
  /// request_id (the client's retry of a put whose response was lost)
  /// rather than a fresh commit.
  bool deduplicated = false;
};

struct GetOkResponse {
  std::uint64_t step = 0;
  std::uint8_t source = 0;  ///< RestoreSource as a stable byte
  Shape shape = Shape{1};
  std::vector<double> values;
};

struct TenantStat {
  /// scrub_age_ms value meaning "this tenant has never been scrubbed"
  /// (tenants created by a put after startup, or pre-health servers).
  static constexpr std::uint64_t kNeverScrubbed = ~std::uint64_t{0};

  std::string name;
  std::uint64_t generations = 0;
  std::uint64_t stored_bytes = 0;
  std::uint64_t quota_bytes = 0;  ///< 0 = unlimited
  std::uint64_t newest_step = 0;  ///< 0 when no generation exists
  // Health fields. On the wire they form a trailing per-tenant block
  // after all base entries, so a stat-ok from a pre-health server
  // decodes with the defaults below.
  std::uint64_t quarantined = 0;           ///< generations quarantined by scrub
  std::uint64_t scrub_age_ms = kNeverScrubbed;  ///< ms since last scrub
  std::string last_error;                  ///< ErrorCode-style kind; "" = none
};

struct StatOkResponse {
  std::uint64_t tenants = 0;  ///< tenants known to the server
  std::vector<TenantStat> stats;
};

struct ShutdownOkResponse {};

struct ErrorResponse {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
};

// ------------------------------------------------- encoding / decoding

[[nodiscard]] Bytes encode(const PingRequest& m);
[[nodiscard]] Bytes encode(const PutRequest& m);
[[nodiscard]] Bytes encode(const GetRequest& m);
[[nodiscard]] Bytes encode(const StatRequest& m);
[[nodiscard]] Bytes encode(const ShutdownRequest& m);
[[nodiscard]] Bytes encode(const PongResponse& m);
[[nodiscard]] Bytes encode(const PutOkResponse& m);
[[nodiscard]] Bytes encode(const GetOkResponse& m);
[[nodiscard]] Bytes encode(const StatOkResponse& m);
[[nodiscard]] Bytes encode(const ShutdownOkResponse& m);
[[nodiscard]] Bytes encode(const ErrorResponse& m);

/// Every protocol message, decoded. Index order is not wire-stable —
/// always dispatch via std::holds_alternative / std::get.
using AnyMessage =
    std::variant<PingRequest, PutRequest, GetRequest, StatRequest, ShutdownRequest,
                 PongResponse, PutOkResponse, GetOkResponse, StatOkResponse,
                 ShutdownOkResponse, ErrorResponse>;

/// Decodes a frame's payload according to its type byte. Throws
/// FormatError on an unknown type or malformed payload (truncated,
/// shape/value-count mismatch, trailing bytes).
[[nodiscard]] AnyMessage decode_message(const Frame& frame);

}  // namespace wck::net
