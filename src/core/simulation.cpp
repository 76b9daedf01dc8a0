#include "core/simulation.hpp"

#include <optional>
#include <utility>

#include "core/progress.hpp"

namespace sps::core {

SimulationHarness::SimulationHarness(const workload::Trace& trace,
                                     const PolicySpec& spec,
                                     const SimulationOptions& options)
    : policy_(makePolicy(spec)),
      // One Recorder per run: counters stay per-simulation (thread-count
      // invariant under core::Runner) even when many runs share one sink.
      recorder_(options.traceSink),
      traceSink_(options.traceSink),
      label_(policyLabel(spec)) {
  sim::SimulatorConfig config = options.sim;
  config.recorder = &recorder_;
  simulator_.emplace(trace, *policy_, config);
  arm(options);
}

SimulationHarness::SimulationHarness(std::string traceName,
                                     std::uint32_t machineProcs,
                                     const PolicySpec& spec,
                                     const SimulationOptions& options)
    : policy_(makePolicy(spec)),
      recorder_(options.traceSink),
      traceSink_(options.traceSink),
      label_(policyLabel(spec)) {
  sim::SimulatorConfig config = options.sim;
  config.recorder = &recorder_;
  simulator_.emplace(std::move(traceName), machineProcs, *policy_, config);
  arm(options);
}

void SimulationHarness::arm(const SimulationOptions& options) {
  if (options.check.any()) {
    checker_.emplace(options.check);
    checker_->arm(*simulator_, *policy_);
  }
  // Telemetry rides the observer registry; with both features off nothing
  // is registered and the event loop is untouched (the zero-cost contract).
  if (options.timeline.enabled) {
    timeline_.emplace(options.timeline);
    timeline_->attach(*simulator_);
  }
  if (options.progress != nullptr) {
    const std::uint64_t stride =
        options.progressStride == 0 ? 1 : options.progressStride;
    simulator_->observers().onEventDispatched(
        [listener = options.progress, stride,
         n = std::uint64_t{0}](const sim::Simulator& s,
                               const sim::Event&) mutable {
          if (++n % stride == 0)
            listener->onSimProgress(s.now(), s.eventsProcessed());
        });
  }
  if (options.instrument) options.instrument(*simulator_);
}

metrics::RunStats SimulationHarness::finish() {
  simulator_->drain();
  if (checker_) checker_->finalize(*simulator_);
  metrics::RunStats stats = metrics::collect(*simulator_, label_);
  if (timeline_) {
    // Counter tracks are bounded post-run output (4 events per sample), so
    // emission is runtime-gated on the sink — unlike the per-event SPS_TRACE
    // layer, no instrumented build is required.
    if (traceSink_ != nullptr) timeline_->emitCounterTracks(*traceSink_);
    stats.timeline = timeline_->take();
  }
  return stats;
}

metrics::RunStats runSimulation(const workload::Trace& trace,
                                const PolicySpec& spec,
                                const SimulationOptions& options) {
  SimulationHarness harness(trace, spec, options);
  harness.simulator().run();
  return harness.finish();
}

metrics::RunStats runSimulation(JobSource& source, const PolicySpec& spec,
                                const SimulationOptions& options) {
  SimulationHarness harness(source.name(), source.machineProcs(), spec,
                            options);
  // Minimum-lookahead pump: advance to the instant before each job's
  // submit time, then ingest it — every event at the submit instant
  // dispatches with the arrival already enqueued, which (with the
  // arrivals-first event band) reproduces the batch order exactly.
  sim::Simulator& simulator = harness.simulator();
  while (std::optional<workload::Job> j = source.next()) {
    simulator.runUntil(j->submit - 1);
    simulator.submit(std::move(*j));
  }
  return harness.finish();
}

}  // namespace sps::core
