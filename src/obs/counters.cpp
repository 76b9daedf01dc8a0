#include "obs/counters.hpp"

namespace sps::obs {

const char* counterName(Counter counter) {
  switch (counter) {
    case Counter::SimEvents: return "sim.events";
    case Counter::SimClockAdvances: return "sim.clockAdvances";
    case Counter::SimTransitions: return "sim.transitions";
    case Counter::SimStarts: return "sim.starts";
    case Counter::SimResumes: return "sim.resumes";
    case Counter::SimSuspensions: return "sim.suspensions";
    case Counter::LedgerAddBusy: return "kernel.ledger.addBusy";
    case Counter::LedgerRemoveBusy: return "kernel.ledger.removeBusy";
    case Counter::LedgerShiftOrigins: return "kernel.ledger.shiftOrigins";
    case Counter::LedgerRebuilds: return "kernel.ledger.rebuilds";
    case Counter::LedgerReservationsAdded:
      return "kernel.ledger.reservationsAdded";
    case Counter::LedgerReservationsRemoved:
      return "kernel.ledger.reservationsRemoved";
    case Counter::VictimInserts: return "kernel.victim.inserts";
    case Counter::VictimRemoves: return "kernel.victim.removes";
    case Counter::VictimBoundSkips: return "kernel.victim.boundSkips";
    case Counter::AnchorQueries: return "kernel.engine.anchorQueries";
    case Counter::ShadowQueries: return "kernel.engine.shadowQueries";
    case Counter::BackfillTests: return "kernel.engine.backfillTests";
    case Counter::BackfillStarts: return "policy.backfillStarts";
    case Counter::BackfillRejects: return "policy.backfillRejects";
    case Counter::ArrivalFastPaths: return "policy.arrivalFastPaths";
    case Counter::CompletionFastPaths: return "policy.completionFastPaths";
    case Counter::FullPasses: return "policy.fullPasses";
    case Counter::FenceScans: return "policy.fenceScans";
    case Counter::VictimTests: return "policy.victimTests";
    case Counter::Preemptions: return "policy.preemptions";
    case Counter::PassSkips: return "policy.passSkips";
    case Counter::DispatchSkips: return "policy.dispatchSkips";
    case Counter::GateReports: return "policy.gateReports";
    case Counter::ResumeWalkReads: return "policy.resumeWalkReads";
    case Counter::CheckTransitionAudits: return "check.transitionAudits";
    case Counter::CheckEpochAudits: return "check.epochAudits";
    case Counter::TimelineSamples: return "obs.timeline.samples";
    case Counter::TimelineDecimations: return "obs.timeline.decimations";
    case Counter::RunnerHookExceptions: return "runner.hookExceptions";
    case Counter::kCount: break;
  }
  return "?";
}

bool Counters::anyNonZero() const {
  for (const std::uint64_t v : values_)
    if (v != 0) return true;
  for (const std::uint64_t v : suspensionsByCategory_)
    if (v != 0) return true;
  return false;
}

}  // namespace sps::obs
