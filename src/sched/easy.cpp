#include "sched/easy.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace sps::sched {

void EasyBackfill::onSimulationStart(sim::Simulator& simulator) {
  ledger_.attach(simulator);
}

void EasyBackfill::enqueue(const sim::Simulator& simulator, JobId job) {
  const Queued entry{job, simulator.job(job).procs};
  if (config_.order == QueueOrder::Fcfs) {
    queue_.push_back(entry);
    return;
  }
  // ShortestFirst: keep the queue sorted by (estimate, submit, id).
  auto pos = std::upper_bound(
      queue_.begin(), queue_.end(), entry,
      [&simulator](const Queued& a, const Queued& b) {
        const auto& ja = simulator.job(a.id);
        const auto& jb = simulator.job(b.id);
        if (ja.estimate != jb.estimate) return ja.estimate < jb.estimate;
        if (ja.submit != jb.submit) return ja.submit < jb.submit;
        return a.id < b.id;
      });
  queue_.insert(pos, entry);
}

void EasyBackfill::onJobArrival(sim::Simulator& simulator, JobId job) {
  enqueue(simulator, job);
  // Arrival fast path: an arrival changes neither the availability function
  // nor free capacity, so when the pivot is unchanged the previous pass's
  // verdicts stand — the pivot still cannot start, and every older
  // candidate still fails against the same kept shadow (its estimated
  // finish only moved later). Only the newcomer needs a test, and its start
  // can only shrink capacity/extra, enabling nobody else. A zombie (running
  // job whose believed end is exactly now) may be the kept shadow's release,
  // leaving it due; a fresh one can un-fail older candidates, so that case
  // takes the full pass, as does a newcomer that becomes the pivot.
  if (config_.kernelMode == kernel::KernelMode::Incremental &&
      queue_.size() > 1 && queue_.front().id != job) {
    ledger_.refresh(simulator);
    if (ledger_.zombieProcsAt(simulator) == 0) {
      simulator.counters().inc(obs::Counter::ArrivalFastPaths);
      headShadow(simulator);
      if (engine_.canBackfill(simulator, job, shadow_)) {
        queue_.erase(std::find_if(
            queue_.begin(), queue_.end(),
            [job](const Queued& q) { return q.id == job; }));
        backfill(simulator, job);
      } else {
        simulator.counters().inc(obs::Counter::BackfillRejects);
      }
      return;
    }
  }
  schedulePass(simulator);
}

void EasyBackfill::onJobCompletion(sim::Simulator& simulator, JobId /*job*/) {
  schedulePass(simulator);
}

void EasyBackfill::onJobCancelled(sim::Simulator& simulator, JobId job) {
  const auto it = std::find_if(queue_.begin(), queue_.end(),
                               [job](const Queued& q) { return q.id == job; });
  SPS_CHECK_MSG(it != queue_.end(), "cancelled job " << job << " not queued");
  queue_.erase(it);
  // A cancelled pivot releases its shadow fence; rescan for newly-feasible
  // starts and backfills.
  schedulePass(simulator);
}

void EasyBackfill::schedulePass(sim::Simulator& simulator) {
  simulator.counters().inc(obs::Counter::FullPasses);
  SPS_TRACE(&simulator.recorder(),
            obs::instant("policy", "easy.pass", simulator.now()));
  // Phase 1: start jobs from the head while they fit.
  while (!queue_.empty() && queue_.front().procs <= simulator.freeCount()) {
    simulator.startJob(queue_.front().id);
    queue_.erase(queue_.begin());
  }
  if (queue_.empty()) return;

  // Phase 2: the head does not fit. Take its shadow time and the extra
  // processors, then backfill. A backfill start neither moves the shadow
  // nor grows `extra` (see backfill), and it only shrinks the free
  // processors — so every job rejected before it stays rejected, and
  // KernelMode::Incremental carries on from the same index. It also passes
  // over every job wider than the free processors, whose backfill test
  // fails on its first comparison, and stops once none are free. Rebuild
  // tests every job, and recomputes the shadow and restarts the scan after
  // each start, as the seed did.
  const bool rescan = config_.kernelMode == kernel::KernelMode::Rebuild;
  bool progress = true;
  while (progress && !queue_.empty()) {
    progress = false;
    ledger_.refresh(simulator);
    headShadow(simulator);
    for (std::size_t i = 1; i < queue_.size();) {
      if (!rescan) {
        if (simulator.freeCount() == 0) break;
        if (queue_[i].procs > simulator.freeCount()) {
          ++i;
          continue;
        }
      }
      const JobId id = queue_[i].id;
      if (!engine_.canBackfill(simulator, id, shadow_)) {
        simulator.counters().inc(obs::Counter::BackfillRejects);
        ++i;
        continue;
      }
      queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
      backfill(simulator, id);
      if (rescan) {
        progress = true;
        break;  // recompute shadow/extra and restart from index 1
      }
    }
  }
}

void EasyBackfill::headShadow(const sim::Simulator& simulator) {
  // Incremental keeps the head's shadow while the head and the ledger
  // version stand: the availability function from now on is then the one
  // it was taken against, so a fresh search from now + 1 finds the same
  // shadow as long as that lies after now.
  const JobId head = queue_.front().id;
  if (config_.kernelMode == kernel::KernelMode::Incremental &&
      head == shadowHead_ && ledger_.version() == shadowVersion_ &&
      shadow_.time > simulator.now())
    return;
  shadow_ = engine_.shadowOf(simulator, head);
  shadowHead_ = head;
  shadowVersion_ = ledger_.version();
}

void EasyBackfill::backfill(sim::Simulator& simulator, JobId job) {
  simulator.counters().inc(obs::Counter::BackfillStarts);
  simulator.startJob(job);
  ++backfills_;
  // The ledger holds only running jobs, so its profile never falls after
  // now; the start lowers it by `procs` over [now, now + estimate). A job
  // ending by the shadow leaves the head's window untouched; one running
  // past it fits in `extra`, so the head still fits at the same shadow
  // with `procs` fewer beside it.
  const auto& j = simulator.job(job);
  if (simulator.now() + j.estimate > shadow_.time) shadow_.extra -= j.procs;
  shadowVersion_ = ledger_.version();
}

void EasyBackfill::onSimulationEnd(sim::Simulator& /*simulator*/) {
  SPS_CHECK_MSG(queue_.empty(), "EASY queue not drained at end of run");
}

}  // namespace sps::sched
