#include "sched/core/reservation_ledger.hpp"

#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"

namespace sps::sched::kernel {

namespace {
/// The scheduler's belief about a running segment (see the header): the
/// full user estimate from segment start. Also read at the transition out
/// of Running, where the simulator still shows the ending segment.
struct Belief {
  Time start, end;
  std::uint32_t procs;
};

Belief beliefOf(const sim::Simulator& simulator, JobId id) {
  const Time start = simulator.exec(id).segStart;
  return {start, start + simulator.job(id).estimate, simulator.job(id).procs};
}
}  // namespace

void ReservationLedger::attach(sim::Simulator& simulator) {
  totalProcs_ = simulator.machine().totalProcs();
  profile_ = AvailabilityProfile(simulator.now(), totalProcs_);
  ++version_;
  attached_ = &simulator;
  // Registered in BOTH modes — between two refresh() calls the profile
  // must track jobs the policy starts mid-decision (the seed code's manual
  // addBusy-after-startJob), and that bookkeeping is identical either way;
  // the modes differ only in what refresh() itself does.
  simulator.observers().onStateChange(
      [this](const sim::Simulator& s, JobId id, sim::JobState from,
             sim::JobState to) { onTransition(s, id, from, to); });
}

void ReservationLedger::refresh(const sim::Simulator& simulator) {
  SPS_CHECK_MSG(attached_ == &simulator, "ledger not attached to this run");
  if (mode_ == KernelMode::Incremental) {
    simulator.counters().inc(obs::Counter::LedgerShiftOrigins);
    SPS_TRACE(&simulator.recorder(),
              obs::instant("kernel", "ledger.shiftOrigin", simulator.now()));
    profile_.shiftOrigin(simulator.now());
  } else {
    simulator.counters().inc(obs::Counter::LedgerRebuilds);
    SPS_TRACE(&simulator.recorder(),
              obs::instant("kernel", "ledger.rebuild", simulator.now()));
    profile_ = fromScratch(simulator, simulator.now());
    ++version_;
  }
}

AvailabilityProfile ReservationLedger::fromScratch(
    const sim::Simulator& simulator, Time origin) const {
  AvailabilityProfile profile(origin, totalProcs_);
  for (const JobId id : simulator.runningJobs()) {
    const Belief b = beliefOf(simulator, id);
    profile.addBusy(b.start, b.end, b.procs);
  }
  for (const auto& [id, r] : reservations_)
    profile.addBusy(r.start, r.end, r.procs);
  return profile;
}

void ReservationLedger::onTransition(const sim::Simulator& simulator, JobId id,
                                     sim::JobState from, sim::JobState to) {
  if (to == sim::JobState::Running) {
    const Belief b = beliefOf(simulator, id);
    simulator.counters().inc(obs::Counter::LedgerAddBusy);
    SPS_TRACE(&simulator.recorder(),
              obs::instant("kernel", "ledger.addBusy", simulator.now(), id)
                  .arg("end", b.end)
                  .arg("procs", b.procs));
    profile_.addBusy(b.start, b.end, b.procs);
    ++version_;
  } else if (from == sim::JobState::Running) {
    const Belief b = beliefOf(simulator, id);
    SPS_CHECK_MSG(b.start != kNoTime,
                  "job " << id << " left Running without its segment start");
    // removeBusy clamps to the current origin; any part of the belief that
    // already elapsed (or a zombie interval entirely in the past) is gone
    // from the profile and needs no return.
    simulator.counters().inc(obs::Counter::LedgerRemoveBusy);
    SPS_TRACE(&simulator.recorder(),
              obs::instant("kernel", "ledger.removeBusy", simulator.now(), id));
    profile_.removeBusy(b.start, b.end, b.procs);
    ++version_;
  }
}

void ReservationLedger::addReservation(JobId job, Time start, Time duration,
                                       std::uint32_t procs) {
  SPS_CHECK_MSG(reservations_.count(job) == 0,
                "job " << job << " already holds a reservation");
  const Time end = start + duration;
  if (attached_ != nullptr) {
    attached_->counters().inc(obs::Counter::LedgerReservationsAdded);
    SPS_TRACE(&attached_->recorder(),
              obs::instant("kernel", "ledger.reserve", attached_->now(), job)
                  .arg("start", start)
                  .arg("procs", procs));
  }
  reservations_.emplace(job, ReservationEntry{start, end, procs});
  profile_.addBusy(start, end, procs);
  ++version_;
}

void ReservationLedger::removeReservation(JobId job) {
  const auto it = reservations_.find(job);
  SPS_CHECK_MSG(it != reservations_.end(),
                "job " << job << " holds no reservation");
  if (attached_ != nullptr) {
    attached_->counters().inc(obs::Counter::LedgerReservationsRemoved);
    SPS_TRACE(&attached_->recorder(),
              obs::instant("kernel", "ledger.unreserve", attached_->now(),
                           job));
  }
  profile_.removeBusy(it->second.start, it->second.end, it->second.procs);
  reservations_.erase(it);
  ++version_;
}

void ReservationLedger::audit(const sim::Simulator& simulator) const {
  SPS_CHECK_MSG(attached_ == &simulator,
                "ledger audit against a simulator it is not attached to");
  // Compared as a step function, so incremental-maintenance drift (a bad
  // addBusy / removeBusy / shiftOrigin) cannot hide behind breakpoint
  // layout.
  SPS_CHECK_MSG(
      profile_.sameFunctionAs(fromScratch(simulator, profile_.origin())),
      "ledger audit: maintained profile diverged from a from-scratch "
      "rebuild at origin "
          << profile_.origin());
}

std::uint32_t ReservationLedger::zombieProcsAt(
    const sim::Simulator& simulator) const {
  const Time now = simulator.now();
  for (const auto& [id, entry] : reservations_)
    SPS_CHECK_MSG(now < entry.start || entry.end <= now,
                  "zombieProcsAt: the reservation of job "
                      << id << " covers now " << now);
  const std::uint32_t believedFree = profile_.freeAt(now);
  SPS_CHECK(believedFree >= simulator.freeCount());
  return believedFree - simulator.freeCount();
}

}  // namespace sps::sched::kernel
