#include "sched/depth_backfill.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace sps::sched {

DepthBackfill::DepthBackfill(DepthConfig config)
    : config_(config), ledger_(config.kernelMode) {
  SPS_CHECK_MSG(config_.depth >= 1, "reservation depth must be >= 1");
}

std::string DepthBackfill::name() const {
  if (config_.depth == kUnlimitedDepth) return "Conservative";
  return "Depth-BF(" + std::to_string(config_.depth) + ")";
}

void DepthBackfill::onSimulationStart(sim::Simulator& simulator) {
  ledger_.attach(simulator);
}

std::size_t DepthBackfill::openSlots() const {
  return std::min(config_.depth, reserved_.size() + tail_.size()) -
         reserved_.size();
}

void DepthBackfill::onJobArrival(sim::Simulator& simulator, JobId job) {
  // The new arrival has the highest id, so push_back keeps tail_ sorted.
  tail_.push_back(job);
  if (config_.kernelMode == kernel::KernelMode::Rebuild) {
    rebuild(simulator);
    return;
  }
  // An arrival never changes the availability function, so every existing
  // guarantee is a fixed point of re-anchoring, and no tail job that failed
  // its backfill test can pass now: the function only loses the arrival's
  // own reservation, and no processor was freed. Only the open slots and
  // the arrival itself do any profile work.
  simulator.counters().inc(obs::Counter::ArrivalFastPaths);
  ledger_.refresh(simulator);
  promote(simulator, openSlots());
  if (tail_.empty()) return;  // the arrival took an open slot
  const auto anchor = engine_.anchorOf(simulator, job);
  if (anchor.startNow) {
    simulator.counters().inc(obs::Counter::BackfillStarts);
    tail_.pop_back();
    simulator.startJob(job);
  }
}

void DepthBackfill::onJobCompletion(sim::Simulator& simulator, JobId job) {
  // An on-time completion leaves the availability function unchanged, so
  // re-anchoring any guarantee returns its current start (see
  // kernel::completionPreservesProfile): only the due prefix can act, the
  // open slots are promoted, and the freed processors may admit backfills.
  // Early completions free capacity and take the full rebuild.
  if (config_.kernelMode == kernel::KernelMode::Rebuild ||
      !kernel::completionPreservesProfile(simulator, job)) {
    rebuild(simulator);
    return;
  }
  simulator.counters().inc(obs::Counter::CompletionFastPaths);
  ledger_.refresh(simulator);
  const std::size_t open = openSlots();
  startDue(simulator);
  if (tail_.empty()) return;  // every queued job holds a guarantee
  promote(simulator, open);
  backfillTail(simulator);
}

void DepthBackfill::startDue(sim::Simulator& simulator) {
  const Time now = simulator.now();
  std::size_t scan = 0;
  std::size_t keep = 0;
  for (; scan < reserved_.size() && reserved_[scan].start <= now; ++scan) {
    const Reservation r = reserved_[scan];
    SPS_CHECK_MSG(r.start == now,
                  "reservation for job " << r.job << " missed its slot");
    if (simulator.job(r.job).procs <= simulator.freeCount()) {
      // The ledger's observer re-enters the identical interval as a
      // running segment, so the profile function is preserved.
      ledger_.removeReservation(r.job);
      simulator.startJob(r.job);
    } else {
      reserved_[keep++] = r;
    }
  }
  reserved_.erase(reserved_.begin() + static_cast<std::ptrdiff_t>(keep),
                  reserved_.begin() + static_cast<std::ptrdiff_t>(scan));
}

void DepthBackfill::reserve(sim::Simulator& simulator, JobId job,
                            Time start) {
  const auto& j = simulator.job(job);
  ledger_.addReservation(job, start, j.estimate, j.procs);
  const Reservation r{start, job};
  reserved_.insert(std::upper_bound(reserved_.begin(), reserved_.end(), r),
                   r);
}

void DepthBackfill::promote(sim::Simulator& simulator, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    const JobId id = tail_[i];
    const auto anchor = engine_.anchorOf(simulator, id);
    if (anchor.startNow) simulator.startJob(id);
    else reserve(simulator, id, anchor.start);
  }
  tail_.erase(tail_.begin(),
              tail_.begin() + static_cast<std::ptrdiff_t>(count));
}

void DepthBackfill::backfillTail(sim::Simulator& simulator) {
  // Unreserved jobs backfill iff their earliest anchor against the profile
  // (running + every reservation + earlier backfills) is the present.
  std::size_t keep = 0;
  for (const JobId id : tail_) {
    if (engine_.anchorOf(simulator, id).startNow) {
      simulator.counters().inc(obs::Counter::BackfillStarts);
      simulator.startJob(id);
    } else {
      tail_[keep++] = id;
    }
  }
  tail_.resize(keep);
}

void DepthBackfill::rebuild(sim::Simulator& simulator) {
  simulator.counters().inc(obs::Counter::FullPasses);
  SPS_TRACE(&simulator.recorder(),
            obs::instant("policy", "depth.rebuild", simulator.now()));
  // Drop every guarantee from the ledger before re-anchoring: job k must be
  // anchored against running jobs + re-anchored jobs 0..k-1 only, never
  // against later jobs' old slots. A job whose estimated end is exactly
  // now() counts as done in the profile; the startNow test defers a start
  // its processors do not yet allow, and that job's completion, pending in
  // this timestamp batch, runs the pass again.
  ledger_.refresh(simulator);
  const std::size_t open = openSlots();
  std::vector<Reservation> old;
  old.swap(reserved_);
  for (const Reservation& r : old) ledger_.removeReservation(r.job);
  // Re-anchor in increasing old guarantee: a job re-anchored earlier only
  // moves left, into times strictly before its old start and therefore
  // before every later old start, so each job's old slot stays feasible.
  // Queue order would break that — an earlier-queued job's improved anchor
  // can steal the hole a later-queued job was anchored in.
  for (const Reservation& r : old) {
    const auto anchor = engine_.anchorOf(simulator, r.job);
    SPS_CHECK_MSG(anchor.start <= r.start,
                  "guarantee of job " << r.job << " regressed: " << r.start
                                      << " -> " << anchor.start);
    if (anchor.startNow) simulator.startJob(r.job);
    else reserve(simulator, r.job, anchor.start);
  }
  promote(simulator, open);
  backfillTail(simulator);
}

void DepthBackfill::onSimulationEnd(sim::Simulator& /*simulator*/) {
  SPS_CHECK_MSG(reserved_.empty() && tail_.empty(),
                "reservations remain at end of run — jobs stranded");
}

}  // namespace sps::sched
