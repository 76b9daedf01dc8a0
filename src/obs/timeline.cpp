#include "obs/timeline.hpp"

#include "obs/trace_sink.hpp"
#include "util/check.hpp"

namespace sps::obs {

TimelineRecorder::TimelineRecorder(TimelineConfig config) : config_(config) {
  strideDefaulted_ = config_.stride <= 0;
  if (strideDefaulted_) config_.stride = kDefaultTimelineStride;
  config_.maxSamples &= ~std::size_t{1};  // decimation halves cleanly
  if (config_.maxSamples < 2) config_.maxSamples = 2;
  data_.stride = config_.stride;
  nextSample_ = config_.stride;
}

void TimelineRecorder::attach(sim::Simulator& simulator) {
  SPS_CHECK_MSG(config_.enabled,
                "attach() on a disabled TimelineRecorder — a disabled "
                "recorder must not subscribe at all");
  // A defaulted stride is pre-scaled to the trace horizon: the span is at
  // least lastSubmit(), and decimation only ever lands on the grid
  // kDefaultTimelineStride * 2^k, so starting on the grid the run would
  // converge to anyway skips recording maxSamples points per doubling on
  // the way there (a ~3x cut in record() calls on long traces).
  if (strideDefaulted_) {
    Time stride = data_.stride;
    const Time horizon = simulator.lastSubmit();
    while (stride * static_cast<Time>(config_.maxSamples) < horizon)
      stride *= 2;
    data_.stride = stride;
    nextSample_ = stride;
  }
  const auto reserve = [this](auto& v) { v.reserve(config_.maxSamples); };
  reserve(data_.queueDepth);
  reserve(data_.runningJobs);
  reserve(data_.suspendedJobs);
  reserve(data_.freeProcs);
  reserve(data_.utilization);
  reserve(data_.backlogProcSeconds);
  simulator.observers().onClockAdvanced(
      [this](const sim::Simulator& s, Time /*from*/, Time to) {
        onClock(s, to);
      });
}

void TimelineRecorder::onClock(const sim::Simulator& simulator, Time to) {
  // The observer fires before the event handler, so the simulator still
  // shows the state that held across (from, to]; every stride boundary in
  // that window gets a point with exactly that state.
  while (nextSample_ <= to) {
    if (data_.sampleCount() == config_.maxSamples) {
      decimate();
      simulator.counters().inc(Counter::TimelineDecimations);
      continue;  // nextSample_ moved to the new grid; re-test against `to`
    }
    record(simulator);
    simulator.counters().inc(Counter::TimelineSamples);
    nextSample_ += data_.stride;
  }
}

void TimelineRecorder::record(const sim::Simulator& simulator) {
  const auto total = simulator.machine().totalProcs();
  const auto free = simulator.freeCount();
  data_.queueDepth.push_back(
      static_cast<std::uint32_t>(simulator.queuedJobs().size()));
  data_.runningJobs.push_back(
      static_cast<std::uint32_t>(simulator.runningJobs().size()));
  data_.suspendedJobs.push_back(
      static_cast<std::uint32_t>(simulator.suspendedJobs().size()));
  data_.freeProcs.push_back(free);
  data_.utilization.push_back(static_cast<double>(total - free) /
                              static_cast<double>(total));
  data_.backlogProcSeconds.push_back(simulator.queuedProcEstimateSeconds());
}

void TimelineRecorder::decimate() {
  // Keep the odd indices: their sample times (2s, 4s, ...) are exactly the
  // multiples of the doubled stride, so the implicit time axis survives.
  const auto keep = [](auto& v) {
    for (std::size_t i = 0; 2 * i + 1 < v.size(); ++i) v[i] = v[2 * i + 1];
    v.resize(v.size() / 2);
  };
  keep(data_.queueDepth);
  keep(data_.runningJobs);
  keep(data_.suspendedJobs);
  keep(data_.freeProcs);
  keep(data_.utilization);
  keep(data_.backlogProcSeconds);
  data_.stride *= 2;
  nextSample_ =
      data_.stride * (static_cast<Time>(data_.sampleCount()) + 1);
}

void TimelineRecorder::emitCounterTracks(TraceSink& sink) const {
  for (std::size_t k = 0; k < data_.sampleCount(); ++k) {
    const std::int64_t ts = data_.timeAt(k);  // 1 sim-second == 1 us
    sink.emit(counter("timeline", "jobs", ts)
                  .arg("queued", data_.queueDepth[k])
                  .arg("running", data_.runningJobs[k])
                  .arg("suspended", data_.suspendedJobs[k]));
    sink.emit(counter("timeline", "procs", ts).arg("free", data_.freeProcs[k]));
    sink.emit(counter("timeline", "utilizationPct", ts)
                  .arg("value", static_cast<std::int64_t>(
                                    data_.utilization[k] * 100.0 + 0.5)));
    sink.emit(counter("timeline", "backlogProcSeconds", ts)
                  .arg("value", static_cast<std::int64_t>(
                                    data_.backlogProcSeconds[k])));
  }
  sink.flush();
}

namespace {

using sim::JobState;

/// Static display name of a transition. Covers exactly the transitions the
/// simulator can emit.
const char* transitionName(JobState from, JobState to) {
  switch (to) {
    case JobState::Queued: return "arrive";
    case JobState::Running:
      return from == JobState::Suspended ? "resume" : "start";
    case JobState::Suspending: return "suspend";
    case JobState::Suspended:
      return from == JobState::Suspending ? "drained" : "suspend";
    case JobState::Finished: return "finish";
    case JobState::Cancelled: return "cancel";
    case JobState::NotArrived: break;
  }
  return "transition";
}

const char* eventTypeName(sim::EventType type) {
  switch (type) {
    case sim::EventType::JobArrival: return "arrival";
    case sim::EventType::JobCompletion: return "completion";
    case sim::EventType::SuspendDrained: return "drained";
    case sim::EventType::Timer: return "timer";
  }
  return "?";
}

}  // namespace

void attachRunTrace(sim::Simulator& simulator, TraceSink& sink) {
  simulator.observers().onEventDispatched(
      [&sink](const sim::Simulator& s, const sim::Event& e) {
        sink.emit(instant("sim", eventTypeName(e.type), s.now())
                      .arg("payload", static_cast<std::int64_t>(e.payload)));
      });
  simulator.observers().onStateChange(
      [&sink](const sim::Simulator& s, JobId id, JobState from, JobState to) {
        if (to == JobState::Running) {
          sink.emit(begin("job", "run", s.now(), id)
                        .arg("procs", s.job(id).procs));
        } else if (from == JobState::Running) {
          // Finished, or preempted: either way the running span closes.
          sink.emit(end("job", "run", s.now(), id)
                        .arg("suspended", static_cast<std::int64_t>(
                                              to != JobState::Finished)));
        } else {
          sink.emit(instant("job", transitionName(from, to), s.now(), id));
        }
      });
}

}  // namespace sps::obs
