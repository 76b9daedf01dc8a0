// Unit + property tests: the scheduling kernel's incremental availability
// maintenance — AvailabilityProfile::removeBusy/shiftOrigin and the
// ReservationLedger built on them. The randomized suites cross-check every
// incremental path against a profile rebuilt naively from the live interval
// set, which is exactly the Rebuild-mode contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "helpers.hpp"
#include "sched/availability_profile.hpp"
#include "sched/core/backfill_engine.hpp"
#include "sched/core/reservation_ledger.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "workload/job.hpp"

namespace sps::sched {
namespace {

using kernel::BackfillEngine;
using kernel::KernelMode;
using kernel::ReservationLedger;
using test::J;
using test::makeTrace;

struct Interval {
  Time start;
  Time end;
  std::uint32_t procs;
};

/// Ground truth: free processors at t from the live interval set.
std::uint32_t naiveFreeAt(const std::vector<Interval>& live, Time t,
                          std::uint32_t total) {
  std::uint32_t busy = 0;
  for (const Interval& iv : live)
    if (iv.start <= t && t < iv.end) busy += iv.procs;
  return total - busy;
}

/// Ground truth profile rebuilt from scratch (the Rebuild-mode semantics).
AvailabilityProfile naiveProfile(const std::vector<Interval>& live,
                                 Time origin, std::uint32_t total) {
  AvailabilityProfile p(origin, total);
  for (const Interval& iv : live) p.addBusy(iv.start, iv.end, iv.procs);
  return p;
}

TEST(RemoveBusy, ExactInverseOfAddBusy) {
  AvailabilityProfile p(0, 10);
  p.addBusy(5, 15, 4);
  p.addBusy(10, 20, 3);
  p.removeBusy(5, 15, 4);
  p.removeBusy(10, 20, 3);
  EXPECT_EQ(p.stepCount(), 1u);
  EXPECT_EQ(p.freeAt(0), 10u);
  EXPECT_EQ(p.freeAt(12), 10u);
}

TEST(RemoveBusy, CoalescesInteriorBoundaries) {
  AvailabilityProfile p(0, 8);
  p.addBusy(10, 20, 2);
  p.addBusy(20, 30, 2);  // same depth, adjacent: boundary at 20 is dead
  EXPECT_EQ(p.freeAt(15), 6u);
  EXPECT_EQ(p.freeAt(25), 6u);
  p.addBusy(15, 25, 3);
  p.removeBusy(15, 25, 3);
  // The add/remove churn must not leave breakpoints at 15/25 behind.
  EXPECT_EQ(p.stepCount(), 3u);  // [0,10) [10,30) [30,inf)
}

TEST(RemoveBusy, OverFreeingTripsInvariant) {
  AvailabilityProfile p(0, 4);
  p.addBusy(0, 10, 2);
  EXPECT_THROW(p.removeBusy(0, 10, 3), InvariantError);
}

TEST(RemoveBusy, ClampsToOrigin) {
  AvailabilityProfile p(0, 4);
  p.addBusy(0, 10, 2);
  p.shiftOrigin(6);
  p.removeBusy(0, 10, 2);  // past part [0,6) is gone; only [6,10) returns
  EXPECT_EQ(p.freeAt(7), 4u);
  EXPECT_EQ(p.stepCount(), 1u);
}

TEST(ShiftOrigin, DropsElapsedStepsOnly) {
  AvailabilityProfile p(0, 6);
  p.addBusy(0, 4, 1);
  p.addBusy(8, 12, 5);
  p.shiftOrigin(6);
  EXPECT_EQ(p.origin(), 6);
  EXPECT_EQ(p.freeAt(6), 6u);
  EXPECT_EQ(p.freeAt(9), 1u);
  EXPECT_EQ(p.findAnchor(6, 4, 6), 12);
  EXPECT_THROW(p.shiftOrigin(5), InvariantError);
}

TEST(ShiftOrigin, MidStepLandingKeepsValue) {
  AvailabilityProfile p(0, 6);
  p.addBusy(2, 10, 4);
  p.shiftOrigin(5);  // lands inside [2,10)
  EXPECT_EQ(p.freeAt(5), 2u);
  EXPECT_EQ(p.freeAt(10), 6u);
}

// The core property: an arbitrary interleaving of addBusy / removeBusy /
// shiftOrigin agrees everywhere with a profile rebuilt from the live
// interval set — and the step vector stays coalesced (minimal), so
// incremental churn cannot leak breakpoints.
TEST(ProfileProperty, IncrementalChurnMatchesNaiveRebuild) {
  Rng rng(0xfeedbeefULL);
  const std::uint32_t total = 48;
  for (int round = 0; round < 40; ++round) {
    AvailabilityProfile p(0, total);
    std::vector<Interval> live;
    Time origin = 0;
    for (int op = 0; op < 120; ++op) {
      const std::int64_t kind = rng.uniformInt(0, 9);
      if (kind < 5 || live.empty()) {
        // addBusy of a random interval that keeps the profile feasible.
        const Time start = origin + rng.uniformInt(0, 50);
        const Time end = start + rng.uniformInt(1, 40);
        std::uint32_t room = total;
        for (Time t = start; t < end; ++t)
          room = std::min(room, naiveFreeAt(live, t, total));
        if (room == 0) continue;
        const auto procs =
            static_cast<std::uint32_t>(rng.uniformInt(1, room));
        p.addBusy(start, end, procs);
        live.push_back({start, end, procs});
      } else if (kind < 8) {
        // removeBusy of a previously added interval (clamped like the
        // ledger does when the origin has advanced past its start).
        const auto pick = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(live.size()) - 1));
        const Interval iv = live[pick];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        p.removeBusy(iv.start, iv.end, iv.procs);
      } else {
        // shiftOrigin forward; drop intervals that fell entirely behind.
        origin += rng.uniformInt(0, 20);
        p.shiftOrigin(origin);
        std::erase_if(live, [origin](const Interval& iv) {
          return iv.end <= origin;
        });
      }

      const AvailabilityProfile naive = naiveProfile(live, origin, total);
      for (int probe = 0; probe < 8; ++probe) {
        const Time t = origin + rng.uniformInt(0, 110);
        ASSERT_EQ(p.freeAt(t), naiveFreeAt(live, t, total))
            << "round " << round << " op " << op << " t=" << t;
        ASSERT_EQ(p.freeAt(t), naive.freeAt(t));
      }
      for (int probe = 0; probe < 4; ++probe) {
        const Time dur = rng.uniformInt(1, 30);
        const auto procs =
            static_cast<std::uint32_t>(rng.uniformInt(1, total));
        ASSERT_EQ(p.findAnchor(origin, dur, procs),
                  naive.findAnchor(origin, dur, procs));
      }
      // Coalescing invariant: every incremental breakpoint is an endpoint
      // of a live interval (removeBusy coalesces dead boundaries), so the
      // churned profile never carries more steps than the fresh rebuild.
      ASSERT_LE(p.stepCount(), naive.stepCount());
    }
  }
}

// Ledger-level crosscheck: one Incremental and one Rebuild ledger observe
// the same simulation; after every refresh both profiles must agree at all
// probe points, and the zombie accounting must match the machine's view.
TEST(ReservationLedgerTest, IncrementalAgreesWithRebuildOverARun) {
  const auto trace = makeTrace(
      8, {{0, 10, 4}, {0, 20, 4}, {1, 5, 2, 8}, {3, 30, 6, 35},
          {12, 4, 8, 6}, {18, 7, 3, 9}, {25, 9, 5, 12}});
  test::ScriptedPolicy policy;
  sim::Simulator simulator(trace, policy);
  ReservationLedger inc(KernelMode::Incremental);
  ReservationLedger reb(KernelMode::Rebuild);
  inc.attach(simulator);
  reb.attach(simulator);

  auto crosscheck = [&](sim::Simulator& s) {
    inc.refresh(s);
    reb.refresh(s);
    for (Time dt = 0; dt <= 60; ++dt)
      ASSERT_EQ(inc.profile().freeAt(s.now() + dt),
                reb.profile().freeAt(s.now() + dt))
          << "t=" << s.now() << " dt=" << dt;
    ASSERT_EQ(inc.zombieProcsAt(s), reb.zombieProcsAt(s));
  };
  policy.arrival = [&](sim::Simulator& s, JobId) {
    crosscheck(s);
    test::ScriptedPolicy::greedy(s);
    crosscheck(s);
  };
  policy.completion = policy.arrival;
  simulator.run();
}

TEST(ReservationLedgerTest, ZombieProcsCountPendingCompletions) {
  // A and B both end (estimated AND actual) at t=10. When A's completion
  // fires first, B is a zombie: estimated end == now but still Running.
  const auto trace = makeTrace(4, {{0, 10, 2}, {0, 10, 2}});
  test::ScriptedPolicy policy;
  sim::Simulator simulator(trace, policy);
  ReservationLedger ledger(KernelMode::Incremental);
  ledger.attach(simulator);
  std::vector<std::uint32_t> zombiesSeen;
  policy.completion = [&](sim::Simulator& s, JobId) {
    ledger.refresh(s);
    zombiesSeen.push_back(ledger.zombieProcsAt(s));
    test::ScriptedPolicy::greedy(s);
  };
  simulator.run();
  ASSERT_EQ(zombiesSeen.size(), 2u);
  EXPECT_EQ(zombiesSeen[0], 2u);  // the sibling still holds its processors
  EXPECT_EQ(zombiesSeen[1], 0u);
}

TEST(ReservationLedgerTest, EarlyCompletionReturnsTheUnexpiredBelief) {
  // Job 0 estimates 50 but finishes at 10; job 1 runs [0, 100) on 2 of 8.
  // Job 2 arrives at t=10, ahead of the completion in the same instant,
  // and refreshes the ledger there. The completion must hand back exactly
  // job 0's belief beyond the origin: 4 processors over [10, 50).
  const auto trace =
      makeTrace(8, {{0, 10, 4, 50}, {0, 100, 2}, {10, 5, 1}});
  test::ScriptedPolicy policy;
  sim::Simulator simulator(trace, policy);
  ReservationLedger ledger(KernelMode::Incremental);
  ledger.attach(simulator);
  std::vector<std::uint32_t> before;
  std::uint64_t versionBefore = 0;
  policy.arrival = [&](sim::Simulator& s, JobId id) {
    if (id == 2) {
      ledger.refresh(s);
      for (Time t = 10; t < 120; ++t)
        before.push_back(ledger.profile().freeAt(t));
      versionBefore = ledger.version();
      return;  // job 2 waits for the completion hook
    }
    test::ScriptedPolicy::greedy(s);
  };
  bool checked = false;
  policy.completion = [&](sim::Simulator& s, JobId id) {
    if (id == 0) {
      ledger.refresh(s);
      ASSERT_EQ(before.size(), 110u);
      EXPECT_EQ(ledger.version(), versionBefore + 1);
      for (Time t = 10; t < 120; ++t) {
        const auto i = static_cast<std::size_t>(t - 10);
        EXPECT_EQ(ledger.profile().freeAt(t) - before[i], t < 50 ? 4u : 0u)
            << "t=" << t;
      }
      EXPECT_TRUE(ledger.profile().sameFunctionAs(
          naiveProfile({{0, 100, 2}}, s.now(), 8)));
      ledger.audit(s);
      checked = true;
    }
    test::ScriptedPolicy::greedy(s);
  };
  simulator.run();
  EXPECT_TRUE(checked);
}

TEST(ReservationLedgerTest, SuspendResumeKeepsIncrementalEqualToRebuild) {
  // Job 0 is suspended when job 2 arrives and resumes when job 2 ends (the
  // resumed segment re-enters with the full estimate from its new start);
  // job 1 runs throughout and finishes early. At every event, before and
  // after the policy acts, the Incremental ledger must equal a Rebuild one.
  const auto trace = makeTrace(
      8, {{0, 100, 6, 150}, {0, 60, 2, 80}, {10, 20, 4}, {15, 5, 1}});
  test::ScriptedPolicy policy;
  sim::Simulator simulator(trace, policy);
  ReservationLedger inc(KernelMode::Incremental);
  ReservationLedger reb(KernelMode::Rebuild);
  inc.attach(simulator);
  reb.attach(simulator);
  int crosschecks = 0;
  auto crosscheck = [&](sim::Simulator& s) {
    inc.refresh(s);
    reb.refresh(s);
    ASSERT_TRUE(inc.profile().sameFunctionAs(reb.profile()))
        << "t=" << s.now();
    inc.audit(s);
    ++crosschecks;
  };
  policy.arrival = [&](sim::Simulator& s, JobId id) {
    crosscheck(s);
    if (id == 2) s.suspendJob(0);
    crosscheck(s);
    test::ScriptedPolicy::greedy(s);
    crosscheck(s);
  };
  policy.completion = [&](sim::Simulator& s, JobId) {
    crosscheck(s);
    test::ScriptedPolicy::greedy(s);
    crosscheck(s);
  };
  simulator.run();
  EXPECT_EQ(simulator.exec(0).suspendCount, 1u);
  EXPECT_EQ(simulator.exec(0).finish, 30 + 90);  // resumed at job 2's end
  EXPECT_EQ(crosschecks, 4 * 3 + 4 * 2);
}

TEST(ReservationLedgerTest, ReservationsLayerOnRunningJobs) {
  const auto trace = makeTrace(8, {{0, 20, 6}, {0, 5, 2}, {0, 5, 2}});
  test::ScriptedPolicy policy;
  sim::Simulator simulator(trace, policy);
  ReservationLedger ledger(KernelMode::Incremental);
  BackfillEngine engine(ledger);
  ledger.attach(simulator);
  bool checked = false;
  policy.arrival = [&](sim::Simulator& s, JobId id) {
    if (id != 2) {
      test::ScriptedPolicy::greedy(s);
      return;  // jobs 0 and 1 start; job 2 stays queued for the checks
    }
    ledger.refresh(s);
    // Job 0 runs [0,20)x6, job 1 runs [0,5)x2: machine full until 5.
    ledger.addReservation(7, 5, 10, 2);  // synthetic guarantee [5,15)x2
    EXPECT_TRUE(ledger.hasReservation(7));
    EXPECT_EQ(ledger.reservationCount(), 1u);
    EXPECT_EQ(ledger.profile().freeAt(4), 0u);
    EXPECT_EQ(ledger.profile().freeAt(5), 0u);   // reservation occupies it
    EXPECT_EQ(ledger.profile().freeAt(15), 2u);  // reservation ended
    EXPECT_EQ(ledger.profile().findAnchor(0, 10, 2), 15);
    // Job 2 (2 procs, estimate 5) anchors behind the reservation.
    const auto anchor = engine.anchorOf(s, 2);
    EXPECT_EQ(anchor.start, 15);
    EXPECT_FALSE(anchor.startNow);
    ledger.removeReservation(7);
    EXPECT_FALSE(ledger.hasReservation(7));
    EXPECT_EQ(ledger.profile().findAnchor(0, 10, 2), 5);
    checked = true;
  };
  // Default completion hook (greedy) starts job 2 once job 1 finishes.
  simulator.run();
  EXPECT_TRUE(checked);
}

TEST(ReservationLedgerTest, RefreshRequiresAttachedSimulator) {
  const auto trace = makeTrace(4, {{0, 5, 1}});
  test::ScriptedPolicy policy;
  sim::Simulator simulator(trace, policy);
  ReservationLedger ledger;
  EXPECT_THROW(ledger.refresh(simulator), InvariantError);
}

}  // namespace
}  // namespace sps::sched
