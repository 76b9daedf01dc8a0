#include "core/simulation.hpp"

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
      label_(spec.label.empty() ? policy_->name() : spec.label) {
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
      label_(spec.label.empty() ? policy_->name() : spec.label) {
  sim::SimulatorConfig config = options.sim;
  config.recorder = &recorder_;
  simulator_.emplace(std::move(traceName), machineProcs, *policy_, config);
  arm(options);
}

void SimulationHarness::arm(const SimulationOptions& options) {
  // First, so a transition's trace span precedes every other observer's
  // reaction to it (the ledger's events among them).
  if (recorder_.sink() != nullptr)
    obs::attachRunTrace(*simulator_, *recorder_.sink());
  if (options.check.any()) {
    checker_.emplace(options.check);
    checker_->arm(*simulator_, *policy_);
  }
  // Tracing and telemetry ride the observer registry; with every feature
  // off nothing is registered and the event loop is untouched (the
  // zero-cost contract).
  if (options.timeline.enabled) {
    timeline_.emplace(options.timeline);
    timeline_->attach(*simulator_);
  }
  if (options.progress != nullptr) {
    simulator_->observers().onEventDispatched(
        [listener = options.progress,
         n = std::uint64_t{0}](const sim::Simulator& s,
                               const sim::Event&) mutable {
          if (++n % kProgressStride == 0)
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
    // Counter tracks are bounded post-run output (4 events per sample),
    // written after the run's own events.
    if (recorder_.sink() != nullptr)
      timeline_->emitCounterTracks(*recorder_.sink());
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

}  // namespace sps::core
