// Reservation-depth backfilling — the spectrum between the paper's two
// backfilling baselines, after the "relaxed"/"selective reservation"
// strategies of the paper's own reference list (Ward et al. [10],
// Srinivasan et al. [16]).
//
// depth = K means the first K queued jobs hold start-time guarantees (their
// "anchor points": the earliest time at which the availability profile —
// running jobs' estimated remainders plus every guarantee anchored before
// them — holds the job for its full estimate); every other queued job may
// start only if doing so delays none of those K reservations. K = 1 is
// EASY's guarantee structure on a FCFS queue; K = infinity is the paper's
// conservative backfilling (Section II-A.1), served from this class under
// the token "conservative". Intermediate K trades the responsiveness of
// aggressive backfilling against the predictability of conservative — a
// useful non-preemptive axis to set next to SS, which abandons guarantees
// entirely.
//
// When a running job ends earlier than its estimate, the schedule is
// compressed: every guarantee is released and re-anchored in order of
// increasing old guarantee, equal guarantees in submission (id) order. A
// job's new anchor is never later than its old one (the old slot is still
// feasible: jobs re-anchored before it only moved into times before its
// old start), so guarantees only improve — the paper's no-starvation
// argument. Reserved slots freed by starts are filled from the head of the
// unreserved tail at the next event, after the existing guarantees.
//
// Anchoring runs over the shared sched/core kernel (ReservationLedger +
// BackfillEngine); this file keeps the depth cutoff and the two-pass
// ordering. KernelMode::Rebuild runs rebuild() on every event and is the
// reference; Incremental serves the events that leave the availability
// function unchanged without re-anchoring (see onJobArrival and
// onJobCompletion).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "sched/core/backfill_engine.hpp"
#include "sched/core/reservation_ledger.hpp"
#include "sim/policy.hpp"

namespace sps::sched {

struct DepthConfig {
  /// Number of queued jobs holding reservations. >= 1.
  std::size_t depth = 2;
  kernel::KernelMode kernelMode = kernel::KernelMode::Incremental;
};

inline constexpr std::size_t kUnlimitedDepth =
    std::numeric_limits<std::size_t>::max();

class DepthBackfill final : public sim::SchedulingPolicy {
 public:
  explicit DepthBackfill(DepthConfig config);

  /// "Conservative" at unlimited depth, else "Depth-BF(K)".
  [[nodiscard]] std::string name() const override;

  void onSimulationStart(sim::Simulator& simulator) override;
  void onJobArrival(sim::Simulator& simulator, JobId job) override;
  void onJobCompletion(sim::Simulator& simulator, JobId job) override;
  void onSimulationEnd(sim::Simulator& simulator) override;

  /// Current guarantee of a queued job, or kNoTime when it holds none
  /// (either unreserved or already started). O(1): read from the ledger,
  /// which keys every reservation by job.
  [[nodiscard]] Time guaranteeOf(JobId job) const {
    return ledger_.reservationStart(job);
  }

  /// The kernel ledger backing this policy, for the sps::check ledger
  /// audit. Read-only.
  [[nodiscard]] const kernel::ReservationLedger& ledger() const {
    return ledger_;
  }

 private:
  struct Reservation {
    Time start;
    JobId job;
    friend bool operator<(const Reservation& a, const Reservation& b) {
      return a.start != b.start ? a.start < b.start : a.job < b.job;
    }
  };

  /// Reserved slots left open at the start of this event: the first
  /// min(depth, queue) jobs hold guarantees, and the reserved jobs are the
  /// lowest ids in the queue, so the open slots go to the head of tail_.
  [[nodiscard]] std::size_t openSlots() const;

  /// Re-derive the whole schedule decision: re-anchor every guarantee in
  /// (old guarantee, id) order (none may regress), anchor the promotions
  /// last, then backfill the tail. Starts everything whose anchor is now.
  void rebuild(sim::Simulator& simulator);

  /// Start the reservations whose guarantee is now and that physically fit
  /// (a completion pending in this timestamp batch may still hold the
  /// processors; the guarantee then stays, and the cascade retries).
  void startDue(sim::Simulator& simulator);

  /// Anchor the first `count` tail jobs, in submission order.
  void promote(sim::Simulator& simulator, std::size_t count);

  /// Pass 2: start each tail job whose earliest anchor is now.
  void backfillTail(sim::Simulator& simulator);

  void reserve(sim::Simulator& simulator, JobId job, Time start);

  DepthConfig config_;
  kernel::ReservationLedger ledger_;
  kernel::BackfillEngine engine_{ledger_};
  std::vector<Reservation> reserved_;  ///< sorted by (guarantee, id)
  std::vector<JobId> tail_;            ///< unreserved, submission order
};

}  // namespace sps::sched
