// TimelineRecorder — sim-clock time series of scheduler state.
//
// The paper's evaluation (and PR 3's counters) are end-of-run aggregates;
// this recorder closes the time-resolved gap. It rides the
// Simulator::observers() registry and samples the machine/queue state at a
// fixed sim-clock stride:
//
//   queue depth | running jobs | suspended jobs | free processors |
//   instantaneous utilization | queued backlog (processor-seconds)
//
// Memory is bounded: once the series reaches TimelineConfig::maxSamples
// points the recorder decimates 2x (keeping every second point and doubling
// the stride), so an arbitrarily long run costs O(maxSamples) regardless of
// span. Sample k (0-based) is always at sim time stride * (k + 1), so the
// time axis is implicit and never stored.
//
// The sampled state is the state that held over the half-open interval
// ending at the sample time: onClockAdvanced fires before the triggering
// event's handler runs, so reading the simulator inside the callback sees
// exactly the configuration that was live across (from, to].
//
// Off by default and free when disabled: a disabled recorder registers no
// observers and runSimulation never constructs one, so the hot path is
// untouched (the same contract as attachRunTrace below). When enabled,
// only the clock channel is subscribed — everything, including the queued
// backlog, is read from the simulator at the sample instant, so the
// per-event cost is a single early-out callback and the real work is
// O(samples), not O(events).
//
// Output paths:
//   * emitCounterTracks() renders the series as Chrome-trace counter events
//     ("ph":"C") through any TraceSink, giving Perfetto stacked
//     queue/processor/utilization tracks alongside PR 3's spans;
//   * metrics::writeTimelineJson() embeds the series as the "timeline"
//     block of the RunStats JSON for utilization-over-time figures.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/simulator.hpp"
#include "util/types.hpp"

namespace sps::obs {

class TraceSink;

/// Default sampling stride: one point per simulated minute. At the default
/// cap that covers a ~2.8-day schedule before the first decimation.
inline constexpr Time kDefaultTimelineStride = 60;

struct TimelineConfig {
  /// Master switch; a default-constructed config records nothing.
  bool enabled = false;
  /// Sim-seconds between samples; 0 = auto: kDefaultTimelineStride doubled
  /// until the trace's submit horizon fits in maxSamples points (the grid
  /// decimation would converge to, chosen up front).
  Time stride = 0;
  /// Decimation cap (even, >= 2; odd values round down). 4096 points of six
  /// series is ~128 KB.
  std::size_t maxSamples = 4096;
};

/// The recorded series. Column-major: series[k] is the sample at sim time
/// stride * (k + 1). `stride` is the *final* stride after any decimations.
struct TimelineData {
  Time stride = 0;
  std::vector<std::uint32_t> queueDepth;
  std::vector<std::uint32_t> runningJobs;
  std::vector<std::uint32_t> suspendedJobs;  ///< Suspending + Suspended
  std::vector<std::uint32_t> freeProcs;
  /// Busy fraction of the machine at the sample instant, in [0, 1].
  std::vector<double> utilization;
  /// Sum over queued (never-started) jobs of procs x estimate — the demand
  /// the scheduler has accepted but not yet placed.
  std::vector<double> backlogProcSeconds;

  [[nodiscard]] std::size_t sampleCount() const { return queueDepth.size(); }
  [[nodiscard]] bool empty() const { return queueDepth.empty(); }
  [[nodiscard]] Time timeAt(std::size_t k) const {
    return stride * static_cast<Time>(k + 1);
  }
};

class TimelineRecorder {
 public:
  explicit TimelineRecorder(TimelineConfig config);

  /// Subscribe to the simulator's observer channels. Call before run();
  /// the recorder must outlive the run. Requires config.enabled — a
  /// disabled recorder must simply not be attached (that is the zero-cost
  /// contract).
  void attach(sim::Simulator& simulator);

  [[nodiscard]] const TimelineData& data() const { return data_; }
  /// Move the series out (the recorder is spent afterwards).
  [[nodiscard]] TimelineData take() { return std::move(data_); }

  /// Render every series as Chrome-trace counter tracks ("ph":"C"):
  /// "jobs" (queued/running/suspended, stacked), "procs" (free),
  /// "utilizationPct", and "backlogProcSeconds". Bounded post-run work —
  /// nothing is emitted while the simulation runs.
  void emitCounterTracks(TraceSink& sink) const;

 private:
  void onClock(const sim::Simulator& simulator, Time to);
  void record(const sim::Simulator& simulator);
  void decimate();

  TimelineConfig config_;
  TimelineData data_;
  Time nextSample_;
  bool strideDefaulted_ = false;  ///< config.stride was 0 → horizon-scaled
};

/// The simulator's own trace events, subscribed as two observers: a "sim"
/// instant per dispatched event, a "job" "run" span per running segment
/// (closing with arg "suspended"), and a "job" instant for every other
/// transition. core::SimulationHarness attaches it, before any other
/// observer, only on runs with a sink — so a run without one carries no
/// trace branch, and a span precedes the ledger events its transition
/// causes. The sink must outlive the run.
void attachRunTrace(sim::Simulator& simulator, TraceSink& sink);

}  // namespace sps::obs
