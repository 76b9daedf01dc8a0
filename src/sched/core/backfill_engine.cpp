#include "sched/core/backfill_engine.hpp"

#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"

namespace sps::sched::kernel {

BackfillEngine::Anchor BackfillEngine::anchorOf(
    const sim::Simulator& simulator, JobId job) const {
  simulator.counters().inc(obs::Counter::AnchorQueries);
  const auto& j = simulator.job(job);
  const Time now = simulator.now();
  const Time start =
      ledger_.profile().findAnchor(now, j.estimate, j.procs);
  return {start, start == now && j.procs <= simulator.freeCount()};
}

BackfillEngine::Shadow BackfillEngine::shadowOf(const sim::Simulator& simulator,
                                                JobId head) const {
  simulator.counters().inc(obs::Counter::ShadowQueries);
  const auto& j = simulator.job(head);
  // The head does not physically fit, so it cannot start at now even where
  // the profile counts zombies free; every window from now + 1 on lies
  // clear of them.
  SPS_CHECK_MSG(j.procs > simulator.freeCount(),
                "head fits now but was left queued");
  const AvailabilityProfile& profile = ledger_.profile();
  const Time shadow =
      profile.findAnchor(simulator.now() + 1, j.estimate, j.procs);
  const std::uint32_t freeAtShadow = profile.freeAt(shadow);
  SPS_CHECK(freeAtShadow >= j.procs);
  return {shadow, freeAtShadow - j.procs};
}

bool BackfillEngine::canBackfill(const sim::Simulator& simulator, JobId job,
                                 const Shadow& shadow) const {
  simulator.counters().inc(obs::Counter::BackfillTests);
  SPS_TRACE(&simulator.recorder(),
            obs::instant("kernel", "backfill.test", simulator.now(), job));
  const auto& j = simulator.job(job);
  if (j.procs > simulator.freeCount()) return false;
  return simulator.now() + j.estimate <= shadow.time || j.procs <= shadow.extra;
}

bool completionPreservesProfile(const sim::Simulator& simulator, JobId job) {
  const auto& x = simulator.exec(job);
  return x.suspendCount == 0 &&
         x.firstStart + simulator.job(job).estimate <= simulator.now();
}

}  // namespace sps::sched::kernel
