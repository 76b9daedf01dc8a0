// BackfillEngine — the backfill scan shared by every profile-driven policy
// (EASY and depth-K, conservative being depth infinity).
//
// The engine owns no schedule state; it is a set of decision queries over a
// ReservationLedger that the owning policy has refreshed for the current
// event. Three rules, previously duplicated per policy:
//
//   * anchor rule — the earliest profile slot holding a job for its full
//     estimate, plus the "start now" test (anchor == now AND the job
//     physically fits in the currently-free processors; the profile alone
//     is not enough, because a completion pending in the same timestamp
//     batch makes the profile optimistic — the deferred-start edge
//     documented in depth_backfill.cpp);
//   * shadow rule — EASY's head reservation: the shadow time and the extra
//     processors left beside the head once it starts, searched from
//     now + 1. The head does not fit now, and running jobs whose estimated
//     end has already passed (zombies: completion pending this batch) hold
//     processors the profile counts free only at now — the seed EASY
//     pinned them busy over [now, now+1) with its max(end, now+1) clamp;
//   * backfill rule — a candidate may start iff it fits now and either ends
//     by the shadow time or needs no more than the extra processors.
#pragma once

#include <cstdint>

#include "sched/core/reservation_ledger.hpp"
#include "util/types.hpp"

namespace sps::sim {
class Simulator;
}

namespace sps::sched::kernel {

class BackfillEngine {
 public:
  explicit BackfillEngine(const ReservationLedger& ledger)
      : ledger_(ledger) {}

  struct Anchor {
    Time start;
    /// anchor == now() and the job fits in the free processors — safe to
    /// call Simulator::startJob immediately.
    bool startNow;
  };

  struct Shadow {
    Time time;            ///< earliest guaranteed start of the head job
    std::uint32_t extra;  ///< processors free beside the head at that time
  };

  /// Earliest anchor for `job` against the ledger's profile (which the
  /// caller must have refreshed for this event).
  [[nodiscard]] Anchor anchorOf(const sim::Simulator& simulator,
                                JobId job) const;

  /// Shadow time and extra processors for a head job that does NOT fit now.
  [[nodiscard]] Shadow shadowOf(const sim::Simulator& simulator,
                                JobId head) const;

  /// EASY backfill admission for `job` under the head's shadow.
  [[nodiscard]] bool canBackfill(const sim::Simulator& simulator, JobId job,
                                 const Shadow& shadow) const;

 private:
  const ReservationLedger& ledger_;
};

/// True when `job`'s just-fired completion left the availability function
/// unchanged for every t >= now(): the job ran one uninterrupted segment
/// and its belief interval [firstStart, firstStart + estimate) had fully
/// elapsed when the completion fired (an on-time finish). Reservation-
/// holding policies use this to take a provably-equivalent fast path on
/// completion — re-anchoring any reservation in guarantee order against an
/// unchanged function returns its current start (an earlier candidate
/// window fails strictly before the reservation's own start, where no
/// later-guarantee interval reaches), so full compression reduces to
/// starting the reservations whose guarantee is exactly now.
[[nodiscard]] bool completionPreservesProfile(const sim::Simulator& simulator,
                                              JobId job);

}  // namespace sps::sched::kernel
