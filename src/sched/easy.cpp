#include "sched/easy.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace sps::sched {

void EasyBackfill::onSimulationStart(sim::Simulator& simulator) {
  ledger_.attach(simulator);
  queue_.clear();
}

void EasyBackfill::enqueue(const sim::Simulator& simulator, JobId job) {
  if (config_.order == QueueOrder::Fcfs) {
    queue_.push_back(job);
    return;
  }
  // ShortestFirst: keep the queue sorted by (estimate, submit, id).
  auto pos = std::upper_bound(
      queue_.begin(), queue_.end(), job,
      [&simulator](JobId a, JobId b) {
        const auto& ja = simulator.job(a);
        const auto& jb = simulator.job(b);
        if (ja.estimate != jb.estimate) return ja.estimate < jb.estimate;
        if (ja.submit != jb.submit) return ja.submit < jb.submit;
        return a < b;
      });
  queue_.insert(pos, job);
}

void EasyBackfill::onJobArrival(sim::Simulator& simulator, JobId job) {
  enqueue(simulator, job);
  // Arrival fast path: an arrival changes neither the availability function
  // nor free capacity, so when the pivot is unchanged the previous pass's
  // verdicts stand — the pivot still cannot start, and every older
  // candidate still fails its backfill test (its estimated finish only
  // moved later against the same absolute shadow; a believed completion
  // strictly between two events is impossible, so the shadow is the same
  // absolute instant the last pass saw). Only the newcomer needs a test,
  // and its start can only shrink capacity/extra, enabling nobody else.
  // A zombie (running job whose believed end is exactly now) invalidates
  // the argument — the shadow overlay can push the pivot's anchor later and
  // un-fail older candidates — so that case takes the full pass, as does a
  // newcomer that becomes the pivot (ShortestFirst insert at the head).
  if (config_.kernelMode == kernel::KernelMode::Incremental &&
      queue_.size() > 1 && queue_.front() != job) {
    ledger_.refresh(simulator);
    if (ledger_.zombieProcsAt(simulator.now()) == 0) {
      simulator.counters().inc(obs::Counter::ArrivalFastPaths);
      const auto shadow = engine_.shadowOf(simulator, queue_.front());
      if (engine_.canBackfill(simulator, job, shadow)) {
        queue_.erase(std::find(queue_.begin(), queue_.end(), job));
        simulator.counters().inc(obs::Counter::BackfillStarts);
        simulator.startJob(job);
        ++backfills_;
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
  const auto it = std::find(queue_.begin(), queue_.end(), job);
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
  while (!queue_.empty() &&
         simulator.job(queue_.front()).procs <= simulator.freeCount()) {
    simulator.startJob(queue_.front());
    queue_.erase(queue_.begin());
  }
  if (queue_.empty()) return;

  // Phase 2: the head does not fit. Compute its shadow time and the extra
  // processors, then backfill; the ledger follows each start through its
  // observer (and an incremental refresh at an unchanged clock is a
  // no-op), so the shadow query always sees the current machine. A
  // backfill start neither moves the shadow earlier nor grows `extra` (the
  // ledger holds only running jobs, and the started job either ends by the
  // shadow or fits inside `extra`), and it only shrinks the free
  // processors — so every job rejected before it stays rejected, and
  // KernelMode::Incremental refreshes the shadow and carries on from the
  // same index. Rebuild restarts the scan after each start, as the seed did.
  const bool rescan = config_.kernelMode == kernel::KernelMode::Rebuild;
  bool progress = true;
  while (progress && !queue_.empty()) {
    progress = false;
    ledger_.refresh(simulator);
    auto shadow = engine_.shadowOf(simulator, queue_.front());
    for (std::size_t i = 1; i < queue_.size();) {
      const JobId id = queue_[i];
      if (!engine_.canBackfill(simulator, id, shadow)) {
        simulator.counters().inc(obs::Counter::BackfillRejects);
        ++i;
        continue;
      }
      simulator.counters().inc(obs::Counter::BackfillStarts);
      simulator.startJob(id);
      queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
      ++backfills_;
      if (rescan) {
        progress = true;
        break;  // recompute shadow/extra and restart from index 1
      }
      shadow = engine_.shadowOf(simulator, queue_.front());
    }
  }
}

void EasyBackfill::onSimulationEnd(sim::Simulator& /*simulator*/) {
  SPS_CHECK_MSG(queue_.empty(), "EASY queue not drained at end of run");
}

}  // namespace sps::sched
