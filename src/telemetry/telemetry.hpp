// Umbrella header for the telemetry subsystem (see TOOLING.md,
// "Telemetry"):
//
//   WCK_COUNTER_ADD("ckpt.crc_failures", 1);
//   WCK_GAUGE_SET("ckpt.async.queue_depth", depth);
//   WCK_HISTOGRAM_RECORD("deflate.block.seconds", dt);
//   WCK_TRACE_SPAN("compress");          // RAII scope span
//   WCK_STAGE("wavelet", &times);        // pipeline stage (util/timer.hpp)
//   WCK_EVENT(kCkptCommit, step, "gen ckpt.7.wck");  // flight recorder
//
// Everything is process-global, thread-safe, and disabled as a whole by
// WCK_TELEMETRY=off in the environment. RunReport snapshots the metrics
// registry + tracer into the schema-versioned JSON document that the
// wckpt CLI and the bench harness emit.
#pragma once

#include "telemetry/event_log.hpp"   // IWYU pragma: export
#include "telemetry/exposition.hpp"  // IWYU pragma: export
#include "telemetry/json.hpp"        // IWYU pragma: export
#include "telemetry/metrics.hpp"     // IWYU pragma: export
#include "telemetry/run_report.hpp"  // IWYU pragma: export
#include "telemetry/trace.hpp"       // IWYU pragma: export
