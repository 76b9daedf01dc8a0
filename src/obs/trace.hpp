// SPS_TRACE — the emission macro of the event-trace layer.
//
//   SPS_TRACE(&simulator.recorder(),
//             obs::instant("sim", "suspend", now).arg("job", id));
//
// Tracing is always compiled in and switched on at runtime: the event
// expression is evaluated, and the sink called, only when the recorder
// carries a sink (core::SimulationOptions::traceSink, sps_sim --trace FILE).
// Without one a site costs a single null-sink branch.
//
// The simulator's own events are not emitted through this macro:
// obs::attachRunTrace (obs/timeline.hpp) subscribes them as observers.
//
// Counters (obs/counters.hpp) do not depend on a sink — they are plain
// array increments, always on.
#pragma once

#include "obs/recorder.hpp"
#include "obs/trace_sink.hpp"

#define SPS_TRACE(recorder, ...)                                      \
  do {                                                                \
    ::sps::obs::Recorder* sps_trace_rec_ = (recorder);                \
    if (sps_trace_rec_ != nullptr && sps_trace_rec_->sink() != nullptr) { \
      ::sps::obs::TraceEvent sps_trace_ev_ = (__VA_ARGS__);           \
      sps_trace_rec_->sink()->emit(sps_trace_ev_);                    \
    }                                                                 \
  } while (false)
