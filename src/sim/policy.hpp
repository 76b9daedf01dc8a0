// SchedulingPolicy — the interface every scheduler implements.
//
// The Simulator owns time, the machine, and job lifecycle mechanics; a
// policy only *decides*: which queued/suspended job to (re)start, which
// running job to suspend. Policies act through Simulator's startJob /
// resumeJob / suspendJob / scheduleTimer and must never mutate state any
// other way.
//
// One policy object drives one run: a Simulator binds the policy it is
// built on and refuses one that is already bound, so a policy's state
// (and the kernel structures it attaches) never has to be reset.
#pragma once

#include <cstdint>
#include <string>

#include "util/types.hpp"

namespace sps::sim {

class Simulator;

class SchedulingPolicy {
 public:
  virtual ~SchedulingPolicy() = default;

  /// Human-readable policy name ("EASY", "SS(SF=2)", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Called once before the first event fires.
  virtual void onSimulationStart(Simulator& /*simulator*/) {}

  /// A job entered the queue (Simulator has already queued it).
  virtual void onJobArrival(Simulator& simulator, JobId job) = 0;

  /// A running job completed (already removed from the machine).
  virtual void onJobCompletion(Simulator& simulator, JobId job) = 0;

  /// A suspended job finished writing out its memory image; its processors
  /// are free as of this instant. Only fires when an overhead model is
  /// active — with zero overhead suspension drains synchronously.
  virtual void onSuspendDrained(Simulator& /*simulator*/, JobId /*job*/) {}

  /// A timer previously armed with Simulator::scheduleTimer fired.
  virtual void onTimer(Simulator& /*simulator*/, std::uint64_t /*tag*/) {}

  /// Whether this policy tolerates Simulator::cancelJob removing one of its
  /// pending (Queued/Suspended) jobs mid-run. Policies that bind future
  /// state to specific jobs at decision time (reservation ledgers, gang
  /// rotations) return false until they learn to repair that state; the
  /// simulator then rejects the cancel instead of corrupting them.
  [[nodiscard]] virtual bool supportsCancel() const { return false; }

  /// A Queued or Suspended job was cancelled (Simulator::cancelJob). The
  /// simulator has already done the lifecycle bookkeeping — the job is in
  /// state Cancelled and off the pending lists — so the policy only drops
  /// its own references (queue entries, claims). Never fires unless
  /// supportsCancel() returned true.
  virtual void onJobCancelled(Simulator& /*simulator*/, JobId /*job*/) {}

  /// Called once after the last event, for end-of-run assertions.
  virtual void onSimulationEnd(Simulator& /*simulator*/) {}

 private:
  friend class Simulator;
  /// The simulator this policy drives; set once, at its construction.
  const Simulator* boundTo_ = nullptr;
};

/// Per-job suspension/restart cost model (Section V-A of the paper).
/// Implementations live in sched/overhead.hpp; the interface sits here so the
/// simulator core has no dependency on the policy layer.
class OverheadPolicy {
 public:
  virtual ~OverheadPolicy() = default;
  /// Seconds the job's processors stay busy writing state out on suspension.
  [[nodiscard]] virtual Time suspendOverhead(JobId job) const = 0;
  /// Seconds of read-back prepended to the job's next running segment.
  [[nodiscard]] virtual Time resumeOverhead(JobId job) const = 0;
};

}  // namespace sps::sim
