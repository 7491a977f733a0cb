#include "util/timer.hpp"

namespace wck {

Stage::Stage(const char* name, telemetry::Histogram* histogram, StageTimes* times)
    : name_(name), histogram_(histogram), times_(times) {
  telemetry::Tracer& tracer = telemetry::Tracer::global();
  if (histogram_ != nullptr) depth_ = tracer.enter();
  start_us_ = tracer.now_us();
}

Stage::~Stage() {
  telemetry::Tracer& tracer = telemetry::Tracer::global();
  const double dur_us = tracer.now_us() - start_us_;
  const double seconds = dur_us * 1e-6;
  if (times_ != nullptr) times_->add(name_, seconds);
  if (histogram_ == nullptr) return;
  histogram_->record(seconds);
  // Like an interior WCK_TRACE_SPAN: inherit the ambient RPC trace,
  // parented to the enclosing RPC span.
  const telemetry::TraceContext ambient = telemetry::current_trace_context();
  tracer.record(name_, start_us_, dur_us, depth_,
                telemetry::TraceContext{ambient.trace_id, 0, ambient.span_id});
  tracer.leave();
}

}  // namespace wck
