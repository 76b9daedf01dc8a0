// Immediate Service (IS) — the comparator strategy of Chiang & Vernon,
// re-implemented from the paper's description (Section II-C):
//
//   "each arriving job is given an immediate timeslice of 10 minutes, by
//    suspending one or more running jobs if needed. The selection of jobs
//    for suspension is based on their instantaneous-xfactor, defined as
//    (wait time + total accumulated run time) / (total accumulated run
//    time). Jobs with the lowest instantaneous-xfactor are suspended."
//
// Interpretation choices (documented in DESIGN.md):
//  * A job still inside its own guaranteed first quantum cannot be chosen as
//    a victim — otherwise the arrival of job B would revoke the guarantee
//    just granted to job A (a just-started job also has the *minimum*
//    possible instantaneous-xfactor of 1, so without this rule the
//    guarantee would be meaningless).
//  * At quantum expiry the job is suspended iff other work is waiting;
//    otherwise it keeps running.
//  * Waiting work (fresh + suspended) is dispatched greedily in submission
//    order whenever processors free up; suspended jobs need their exact
//    processors (local preemption, same constraint as SS). No reservations:
//    preemption voids start-time guarantees anyway.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/policy.hpp"

namespace sps::sched {

struct IsConfig {
  /// Guaranteed initial timeslice, seconds (paper: 10 minutes).
  Time quantum = 10 * kMinute;
};

class ImmediateService final : public sim::SchedulingPolicy {
 public:
  explicit ImmediateService(IsConfig config = {});

  [[nodiscard]] std::string name() const override { return "IS"; }

  void onJobArrival(sim::Simulator& simulator, JobId job) override;
  void onJobCompletion(sim::Simulator& simulator, JobId job) override;
  void onSuspendDrained(sim::Simulator& simulator, JobId job) override;
  void onTimer(sim::Simulator& simulator, std::uint64_t tag) override;
  void onSimulationEnd(sim::Simulator& simulator) override;

  [[nodiscard]] std::uint64_t preemptionsInitiated() const {
    return preemptions_;
  }

 private:
  /// True while the job is running inside its guaranteed first quantum.
  [[nodiscard]] bool inFirstQuantum(const sim::Simulator& s, JobId id) const;

  /// Greedy submission-order dispatch of queued + suspended work.
  void dispatch(sim::Simulator& simulator);

  /// Try to grant the arriving job its immediate timeslice, suspending the
  /// lowest instantaneous-xfactor victims if needed.
  void grantImmediateService(sim::Simulator& simulator, JobId job);

  [[nodiscard]] bool anyWaitingWork(const sim::Simulator& s) const;

  IsConfig config_;
  /// Dispatch scratch: the waiting work (queued + fully-suspended) that fits
  /// the free processors, gathered and sorted into submission order on
  /// every dispatch.
  std::vector<JobId> waiting_;
  std::uint64_t preemptions_ = 0;
  /// A job whose immediate-service victims are still draining their memory
  /// images (overhead model only). Until it starts, nothing else may be
  /// dispatched — otherwise the freed processors would be re-occupied and
  /// the grant retried forever (suspend/drain/steal livelock).
  JobId pendingGrant_ = kInvalidJob;
};

}  // namespace sps::sched
