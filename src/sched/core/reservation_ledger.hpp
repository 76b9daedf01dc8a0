// ReservationLedger — the scheduling kernel's incrementally-maintained
// availability profile (the paper's Section II-A "2D chart", kept alive
// across events instead of rebuilt at each one).
//
// The ledger owns one AvailabilityProfile holding two kinds of busy
// intervals:
//
//   * running jobs' believed remainders — [segStart, segStart + estimate),
//     entered and returned by a Simulator state-change observer as a job
//     enters and leaves Running (the simulator still shows the ending
//     segment then, so the ledger keeps no per-job copy);
//   * reservations — future start-time guarantees a backfilling policy has
//     handed out, entered and released explicitly through addReservation /
//     removeReservation.
//
// Policies call refresh() at the top of every decision point; in
// incremental mode that only advances the profile origin to now()
// (dropping elapsed steps), so the amortized maintenance cost per event is
// the handful of addBusy/removeBusy calls its transitions actually cause —
// not a rebuild over every active job. version() counts profile mutations,
// so a policy can key a derived answer (EASY's head shadow) on it.
//
// KernelMode::Rebuild keeps the seed behaviour: refresh() reconstructs the
// profile from the simulator's running set plus the recorded reservations,
// exactly as the backfilling policies (EASY, depth-K) did per event
// before this kernel existed. The two modes produce bit-identical profiles
// (the golden-equivalence suite runs every policy under both and asserts
// identical schedules), and the Rebuild lane doubles as the before/after
// baseline in bench_micro_engine.
//
// Suspension is effectively out of scope: the ledger drops a job's
// interval as soon as it leaves Running, and a resumed segment is
// re-entered with the full user estimate (uniform with fresh starts, so
// both kernel modes agree bit-for-bit). The policies that anchor against
// profiles (EASY, and depth-K with conservative as K = infinity) are
// exactly the non-preemptive ones, so the resumed case is never exercised
// in practice.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "sched/availability_profile.hpp"
#include "util/types.hpp"

namespace sps::sim {
class Simulator;
enum class JobState : std::uint8_t;
}

namespace sps::sched::kernel {

/// Maintenance strategy for the kernel's incremental structures. Rebuild is
/// the pre-kernel, per-event-reconstruction behaviour, kept as the
/// golden-equivalence reference and the bench baseline.
enum class KernelMode : std::uint8_t { Incremental, Rebuild };

class ReservationLedger {
 public:
  explicit ReservationLedger(KernelMode mode = KernelMode::Incremental)
      : mode_(mode) {}

  /// Bind to a simulator: sizes the profile to the machine and registers
  /// the state-change observer that keeps the running layer current
  /// between refreshes (both modes — a policy that starts jobs
  /// mid-decision needs the profile to follow). Call once, from
  /// onSimulationStart: a ledger serves the one run its policy drives and
  /// must outlive it.
  void attach(sim::Simulator& simulator);

  /// Bring the profile up to date with the simulation clock. Incremental:
  /// shift the origin to now(). Rebuild: reconstruct running + reservations
  /// from scratch. Call once at the top of every policy decision point,
  /// before any query.
  void refresh(const sim::Simulator& simulator);

  // --- reservations (the policy-owned layer) ---------------------------
  /// Record a start-time guarantee occupying [start, start + duration).
  /// The job must not already hold a reservation.
  void addReservation(JobId job, Time start, Time duration,
                      std::uint32_t procs);
  /// Release a guarantee previously recorded with addReservation.
  void removeReservation(JobId job);
  [[nodiscard]] bool hasReservation(JobId job) const {
    return reservations_.count(job) != 0;
  }
  [[nodiscard]] std::size_t reservationCount() const {
    return reservations_.size();
  }
  /// Start of `job`'s reservation, or kNoTime when it holds none.
  [[nodiscard]] Time reservationStart(JobId job) const {
    const auto it = reservations_.find(job);
    return it == reservations_.end() ? kNoTime : it->second.start;
  }

  // --- queries ----------------------------------------------------------
  /// The profile of running remainders + reservations, valid as of the
  /// last refresh(). Do not mutate (mutableProfile is a test seam).
  [[nodiscard]] const AvailabilityProfile& profile() const {
    return profile_;
  }
  [[nodiscard]] AvailabilityProfile& mutableProfile() { return profile_; }

  /// Count of profile mutations: every running-layer addBusy/removeBusy,
  /// reservation add/remove, rebuild and attach, but not the origin shift.
  /// Equal versions: the same availability function from the later now().
  [[nodiscard]] std::uint64_t version() const { return version_; }

  /// Invariant audit (sps::check): the profile must equal a from-scratch
  /// rebuild of the simulator's running segments + the reservations at the
  /// profile's current origin (AvailabilityProfile::sameFunctionAs).
  /// Read-only; callable between events in either kernel mode. Throws
  /// InvariantError on divergence.
  void audit(const sim::Simulator& simulator) const;

  /// Total processors held by running jobs whose *estimated* end is <=
  /// now() — their completion events are pending in the current timestamp
  /// batch, so the profile already counts them free, but the machine has
  /// not released them yet: profile().freeAt(now) - freeCount(). EASY's
  /// arrival fast path needs none. Requires a refresh at now() and no
  /// reservation covering now().
  [[nodiscard]] std::uint32_t zombieProcsAt(
      const sim::Simulator& simulator) const;

 private:
  struct ReservationEntry {
    Time start;
    Time end;
    std::uint32_t procs;
  };

  void onTransition(const sim::Simulator& simulator, JobId id,
                    sim::JobState from, sim::JobState to);
  /// The profile of running segments + reservations at `origin`.
  [[nodiscard]] AvailabilityProfile fromScratch(
      const sim::Simulator& simulator, Time origin) const;

  KernelMode mode_;
  std::uint32_t totalProcs_ = 0;
  std::uint64_t version_ = 0;
  AvailabilityProfile profile_{0, 0};
  std::unordered_map<JobId, ReservationEntry> reservations_;
  /// The simulator attach() bound; nullptr for a ledger driven by hand.
  const sim::Simulator* attached_ = nullptr;
};

}  // namespace sps::sched::kernel
