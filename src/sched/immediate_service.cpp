#include "sched/immediate_service.hpp"

#include <algorithm>

#include "sched/core/idle_order.hpp"
#include "sim/simulator.hpp"

namespace sps::sched {

ImmediateService::ImmediateService(IsConfig config)
    : config_(config) {
  SPS_CHECK_MSG(config_.quantum > 0, "IS quantum must be positive");
}

bool ImmediateService::inFirstQuantum(const sim::Simulator& s,
                                      JobId id) const {
  const auto& x = s.exec(id);
  return s.state(id) == sim::JobState::Running && x.suspendCount == 0 &&
         s.accumulatedRun(id) < config_.quantum;
}

bool ImmediateService::anyWaitingWork(const sim::Simulator& s) const {
  return !s.queuedJobs().empty() || !s.suspendedJobs().empty();
}

void ImmediateService::onJobArrival(sim::Simulator& simulator, JobId job) {
  grantImmediateService(simulator, job);
  dispatch(simulator);
}

void ImmediateService::onJobCompletion(sim::Simulator& simulator,
                                       JobId /*job*/) {
  dispatch(simulator);
}

void ImmediateService::onSuspendDrained(sim::Simulator& simulator,
                                        JobId /*job*/) {
  dispatch(simulator);
}

void ImmediateService::onTimer(sim::Simulator& simulator, std::uint64_t tag) {
  // Quantum-expiry timer; the tag is the job id.
  const JobId job = static_cast<JobId>(tag);
  const auto& x = simulator.exec(job);
  if (simulator.state(job) != sim::JobState::Running || x.suspendCount != 0)
    return;  // finished or already preempted some other way
  // Suspend only if some waiting job could actually use the processors.
  const std::uint32_t wouldFree =
      simulator.freeCount() + simulator.job(job).procs;
  const sim::ProcSet wouldFreeSet =
      simulator.freeSet() | simulator.procSet(job);
  bool helpsSomeone = false;
  for (JobId w : simulator.queuedJobs())
    helpsSomeone |= simulator.job(w).procs <= wouldFree;
  for (JobId w : simulator.suspendedJobs())
    if (w != job && simulator.state(w) == sim::JobState::Suspended)
      helpsSomeone |= simulator.procSet(w).isSubsetOf(wouldFreeSet);
  if (helpsSomeone) {
    simulator.suspendJob(job);
    ++preemptions_;
    dispatch(simulator);
  }
}

void ImmediateService::grantImmediateService(sim::Simulator& simulator,
                                             JobId job) {
  const auto& j = simulator.job(job);
  SPS_CHECK(simulator.state(job) == sim::JobState::Queued);
  if (pendingGrant_ != kInvalidJob) return;  // one outstanding grant at a time
  if (j.procs > simulator.freeCount()) {
    // Collect victims: lowest instantaneous-xfactor first, skipping jobs
    // still inside their own guaranteed quantum.
    std::vector<JobId> running(simulator.runningJobs());
    std::sort(running.begin(), running.end(),
              [&simulator](JobId a, JobId b) {
                const double xa = simulator.instantaneousXfactor(a);
                const double xb = simulator.instantaneousXfactor(b);
                if (xa != xb) return xa < xb;
                return a < b;
              });
    std::uint32_t gain = 0;
    std::vector<JobId> victims;
    for (JobId r : running) {
      if (inFirstQuantum(simulator, r)) continue;
      victims.push_back(r);
      gain += simulator.job(r).procs;
      if (simulator.freeCount() + gain >= j.procs) break;
    }
    if (simulator.freeCount() + gain < j.procs)
      return;  // immediate service impossible; the job queues normally
    bool anyDraining = false;
    for (JobId r : victims) {
      simulator.suspendJob(r);
      ++preemptions_;
      if (simulator.state(r) == sim::JobState::Suspending)
        anyDraining = true;
    }
    if (anyDraining) {
      // Fence the freed capacity: until this job starts, dispatch() serves
      // nobody else.
      pendingGrant_ = job;
      return;
    }
  }
  if (j.procs <= simulator.freeCount()) {
    simulator.startJob(job);
    if (j.estimate > config_.quantum)
      simulator.scheduleTimer(simulator.now() + config_.quantum, job);
  }
}

void ImmediateService::dispatch(sim::Simulator& simulator) {
  // An outstanding grant owns every processor that frees up until it runs.
  if (pendingGrant_ != kInvalidJob) {
    const JobId job = pendingGrant_;
    SPS_CHECK(simulator.state(job) == sim::JobState::Queued);
    if (simulator.job(job).procs <= simulator.freeCount()) {
      pendingGrant_ = kInvalidJob;
      simulator.startJob(job);
      if (simulator.job(job).estimate > config_.quantum)
        simulator.scheduleTimer(simulator.now() + config_.quantum, job);
    } else {
      return;  // still draining; nobody else may start
    }
  }

  // Single greedy pass over all waiting work in submission order. Starts
  // and resumptions only consume processors, so one pass is complete — and
  // a job that does not fit the processors free when the pass starts fits
  // at no later step either, so only the jobs that fit now are gathered
  // and sorted.
  //
  // The owed set starts from the simulator's refcounted aggregate (the
  // union the old per-dispatch suspended-list scan rebuilt) but must be a
  // local snapshot: the walk below subtracts each resumed job's processors
  // as it goes, and that running remainder is policy bookkeeping the
  // live aggregate does not mirror (overlapping owed sets refcount).
  sim::ProcSet owed = simulator.suspendedOwedSet();
  // Suspended jobs need their exact processors back; queued ones any.
  auto fits = [&simulator](JobId id) {
    if (simulator.state(id) == sim::JobState::Suspended)
      return simulator.procSet(id).isSubsetOf(simulator.freeSet());
    return simulator.job(id).procs <= simulator.freeCount();
  };
  waiting_.clear();
  for (const JobId id : simulator.queuedJobs())
    if (fits(id)) waiting_.push_back(id);
  for (const JobId id : simulator.suspendedJobs())
    if (simulator.state(id) == sim::JobState::Suspended && fits(id))
      waiting_.push_back(id);
  kernel::sortBySubmit(waiting_, simulator);
  for (const JobId id : waiting_) {
    if (!fits(id)) continue;
    const auto& x = simulator.exec(id);
    if (simulator.state(id) == sim::JobState::Suspended) {
      // Never bounce a job suspended at this very instant straight back in
      // — the suspension was made to give its processors to someone else.
      if (x.waitSince == simulator.now()) continue;
      owed -= simulator.procSet(id);
      simulator.resumeJob(id);
    } else {
      // Prefer processors no suspended job is owed, so suspended jobs are
      // not stranded behind squatters: fence the owed set whenever the job
      // fits outside it.
      const bool fitsUnowed =
          (simulator.freeSet() - owed).count() >= simulator.job(id).procs;
      simulator.startJob(id, fitsUnowed ? owed : sim::kNoProcs);
      if (simulator.job(id).estimate > config_.quantum)
        simulator.scheduleTimer(simulator.now() + config_.quantum, id);
    }
  }

  // The immediate-service guarantee is outstanding for any job that has
  // never computed: retry the grant for the oldest such job (one per pass,
  // so a hard-to-place job cannot cascade suspensions for its whole cohort).
  JobId oldest = kInvalidJob;
  for (JobId id : simulator.queuedJobs()) {
    if (simulator.exec(id).firstStart != kNoTime) continue;
    if (oldest == kInvalidJob ||
        simulator.job(id).submit < simulator.job(oldest).submit ||
        (simulator.job(id).submit == simulator.job(oldest).submit &&
         id < oldest))
      oldest = id;
  }
  if (oldest != kInvalidJob) grantImmediateService(simulator, oldest);
}

void ImmediateService::onSimulationEnd(sim::Simulator& simulator) {
  SPS_CHECK_MSG(pendingGrant_ == kInvalidJob,
                "IS grant left pending at end of run");
  SPS_CHECK_MSG(simulator.queuedJobs().empty(),
                "IS queue not drained at end of run");
  SPS_CHECK_MSG(simulator.suspendedJobs().empty(),
                "IS left suspended jobs stranded");
}

}  // namespace sps::sched
