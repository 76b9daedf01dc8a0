// Recorder — the per-simulation observability bundle: one Counters block
// plus an optional TraceSink.
//
// Every Simulator carries exactly one Recorder (an owned default, or one
// supplied through Simulator::Config::recorder when the caller wants the
// counters and sink to outlive the run). Policies, the scheduling kernel,
// and the metrics collector all reach it through Simulator::recorder() /
// Simulator::counters(), so there is a single access point and zero global
// state — which is what keeps counters bit-identical across Runner thread
// counts.
#pragma once

#include "obs/counters.hpp"

namespace sps::obs {

class TraceSink;

class Recorder {
 public:
  Recorder() = default;
  explicit Recorder(TraceSink* sink) : sink_(sink) {}

  /// Hot-path counter block; incremented directly (recorder.counters.inc).
  Counters counters;

  [[nodiscard]] TraceSink* sink() const { return sink_; }

 private:
  TraceSink* sink_ = nullptr;
};

}  // namespace sps::obs
