// Regression and gap-coverage tests: primitives added during the
// reproduction effort (bounded Pareto sampling, preferring allocation,
// migrating resume, the state-change hook, steady-state utilization) and
// pinned-down bugs (same-instant completion cascades in conservative
// backfilling, IS grant livelock).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/simulation.hpp"
#include "helpers.hpp"
#include "metrics/collector.hpp"
#include "sched/depth_backfill.hpp"
#include "sched/immediate_service.hpp"
#include "sched/overhead.hpp"
#include "sim/machine.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workload/synthetic.hpp"

namespace sps {
namespace {

using test::J;
using test::ScriptedPolicy;
using test::makeTrace;

// --- Rng::boundedPareto -------------------------------------------------------

TEST(BoundedPareto, StaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.boundedPareto(10.0, 400.0, 2.5);
    EXPECT_GE(v, 10.0);
    EXPECT_LT(v, 400.0);
  }
}

TEST(BoundedPareto, AlphaOneIsLogUniform) {
  Rng a(5), b(5);
  for (int i = 0; i < 100; ++i)
    EXPECT_DOUBLE_EQ(a.boundedPareto(2.0, 64.0, 1.0), b.logUniform(2.0, 64.0));
}

TEST(BoundedPareto, LargerAlphaShiftsMassDown) {
  double prevMedian = 1e18;
  for (double alpha : {1.0, 2.0, 3.0, 4.0}) {
    Rng rng(7);
    Samples s;
    for (int i = 0; i < 20000; ++i)
      s.add(rng.boundedPareto(33.0, 430.0, alpha));
    EXPECT_LT(s.median(), prevMedian) << "alpha=" << alpha;
    prevMedian = s.median();
  }
}

TEST(BoundedPareto, IntVariantInclusiveBounds) {
  Rng rng(9);
  bool sawLo = false, sawHi = false;
  for (int i = 0; i < 50000; ++i) {
    const auto v = rng.boundedParetoInt(2, 8, 1.2);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 8);
    sawLo |= v == 2;
    sawHi |= v == 8;
  }
  EXPECT_TRUE(sawLo);
  EXPECT_TRUE(sawHi);
}

TEST(BoundedPareto, RejectsBadArguments) {
  Rng rng(1);
  EXPECT_THROW((void)rng.boundedPareto(0.0, 10.0, 2.0), InvariantError);
  EXPECT_THROW((void)rng.boundedPareto(10.0, 10.0, 2.0), InvariantError);
  EXPECT_THROW((void)rng.boundedPareto(1.0, 10.0, 0.5), InvariantError);
}

// --- Machine::allocate with soft and hard avoid sets ----------------------------

TEST(AllocatePreferring, AvoidsWhenPossible) {
  sim::Machine m(16);
  const sim::ProcSet avoid = sim::ProcSet::firstN(8);
  const sim::ProcSet got = m.allocate(8, 0, sim::ProcSet{}, avoid);
  EXPECT_FALSE(got.intersects(avoid));
  EXPECT_EQ(got.count(), 8u);
}

TEST(AllocatePreferring, DipsInOnlyForShortfall) {
  sim::Machine m(16);
  const sim::ProcSet avoid = sim::ProcSet::firstN(12);
  const sim::ProcSet got = m.allocate(8, 0, sim::ProcSet{}, avoid);
  EXPECT_EQ(got.count(), 8u);
  // 4 non-avoided processors exist (12-15); the shortfall of 4 comes from
  // the avoided set.
  EXPECT_EQ((got & avoid).count(), 4u);
  EXPECT_EQ((got - avoid).count(), 4u);
}

TEST(AllocatePreferring, FullOverlapStillAllocates) {
  sim::Machine m(8);
  const sim::ProcSet avoid = sim::ProcSet::firstN(8);
  const sim::ProcSet got = m.allocate(8, 0, sim::ProcSet{}, avoid);
  EXPECT_EQ(got.count(), 8u);
}

TEST(AllocatePreferring, InsufficientFreeThrows) {
  sim::Machine m(8);
  m.allocate(6, 0);
  EXPECT_THROW((void)m.allocate(4, 0, sim::ProcSet{}, sim::ProcSet{}),
               InvariantError);
}

// Found by sps_fuzz (seed 2829767830633408312, ss:1.5, Incremental): when
// the shortfall path had to dip into avoided processors, the merged
// soft|hard avoid set let it hand out FENCED processors even though
// soft-avoided ones sufficed. The fence must never be touched.
TEST(AllocatePreferring, ShortfallNeverTakesHardFence) {
  sim::Machine m(16);
  const sim::ProcSet hard = sim::ProcSet::firstN(4);        // procs 0-3
  sim::ProcSet soft = sim::ProcSet::firstN(12) - hard;      // procs 4-11
  // Only 4 procs (12-15) are outside both sets; asking for 8 forces the
  // shortfall path. Pre-fix, .lowest() on the merged set returned 0-3.
  const sim::ProcSet got = m.allocate(8, 0, hard, soft);
  EXPECT_EQ(got.count(), 8u);
  EXPECT_FALSE(got.intersects(hard));
  EXPECT_EQ((got & soft).count(), 4u);
}

TEST(AllocatePreferring, InsufficientUnfencedThrows) {
  sim::Machine m(8);
  EXPECT_THROW(
      (void)m.allocate(6, 0, sim::ProcSet::firstN(4), sim::ProcSet{}),
      InvariantError);
}

// --- Simulator::resumeJobMigrating ----------------------------------------------

TEST(ResumeMigrating, MovesToFreeProcessors) {
  const auto trace = makeTrace(12, {{0, 100, 4}, {0, 100, 4}});
  ScriptedPolicy policy;
  policy.arrival = [](sim::Simulator& s, JobId j) {
    s.startJob(j);
    if (j == 1) s.scheduleTimer(10, 1);
  };
  policy.timer = [](sim::Simulator& s, std::uint64_t) {
    // Suspend job 0 (procs {0-3}); job 1 holds {4-7}; {8-11} free. Block
    // {0,1} with a hard avoid set to force job 0 onto new processors.
    s.suspendJob(0);
    s.resumeJobMigrating(0, sim::ProcSet::firstN(2));
    EXPECT_FALSE(s.procSet(0).contains(0));
    EXPECT_FALSE(s.procSet(0).contains(1));
    EXPECT_EQ(s.procSet(0).count(), 4u);
  };
  sim::Simulator s(trace, policy);
  s.run();
  EXPECT_EQ(s.state(0), sim::JobState::Finished);
}

TEST(ResumeMigrating, RequiresSuspendedState) {
  const auto trace = makeTrace(8, {{0, 100, 4}});
  ScriptedPolicy policy;
  policy.arrival = [](sim::Simulator& s, JobId j) {
    EXPECT_THROW(s.resumeJobMigrating(j, sim::ProcSet{}), InvariantError);
    s.startJob(j);
  };
  sim::Simulator s(trace, policy);
  s.run();
}

// --- state-change hook -----------------------------------------------------------

TEST(StateHook, ObservesFullLifecycle) {
  const auto trace = makeTrace(8, {{0, 100, 4}});
  ScriptedPolicy policy;
  policy.arrival = [](sim::Simulator& s, JobId j) {
    s.startJob(j);
    s.scheduleTimer(40, 1);
  };
  policy.timer = [](sim::Simulator& s, std::uint64_t) {
    s.suspendJob(0);
    s.resumeJob(0);
  };
  std::vector<std::pair<sim::JobState, sim::JobState>> transitions;
  sim::Simulator s(trace, policy);
  s.observers().onStateChange([&](const sim::Simulator&, JobId,
                                  sim::JobState from, sim::JobState to) {
    transitions.emplace_back(from, to);
  });
  s.run();
  using S = sim::JobState;
  const std::vector<std::pair<S, S>> expected = {
      {S::NotArrived, S::Queued},   {S::Queued, S::Running},
      {S::Running, S::Suspended},   {S::Suspended, S::Running},
      {S::Running, S::Finished}};
  EXPECT_EQ(transitions, expected);
}

TEST(StateHook, SeesDrainPhaseWithOverhead) {
  const auto trace = makeTrace(8, {{0, 100, 4}});
  sched::FixedOverhead overhead(20, 20);
  ScriptedPolicy policy;
  policy.arrival = [](sim::Simulator& s, JobId j) {
    s.startJob(j);
    s.scheduleTimer(40, 1);
  };
  policy.timer = [](sim::Simulator& s, std::uint64_t) { s.suspendJob(0); };
  policy.drained = [](sim::Simulator& s, JobId j) { s.resumeJob(j); };
  bool sawSuspending = false, sawDrained = false;
  sim::Simulator::Config config;
  config.overhead = &overhead;
  sim::Simulator s(trace, policy, config);
  s.observers().onStateChange([&](const sim::Simulator&, JobId,
                                  sim::JobState from, sim::JobState to) {
    sawSuspending |= to == sim::JobState::Suspending;
    sawDrained |= from == sim::JobState::Suspending &&
                  to == sim::JobState::Suspended;
  });
  s.run();
  EXPECT_TRUE(sawSuspending);
  EXPECT_TRUE(sawDrained);
}

// --- steady-state utilization -----------------------------------------------------

TEST(SteadyUtilization, CountsOnlyTheArrivalWindow) {
  // Jobs at t=0 and t=100 (4 procs each, 200 s runtime, 8-proc machine):
  // the arrival window is [0, 100]; both busy integrals are known exactly.
  const auto trace = makeTrace(8, {{0, 200, 4}, {100, 200, 4}});
  ScriptedPolicy policy;
  sim::Simulator s(trace, policy);
  s.run();
  // Busy over [0,100]: job0 runs 4 procs the whole window = 400 proc-s.
  // (job1 starts exactly at t=100 — outside the integral.)
  EXPECT_DOUBLE_EQ(s.busyProcSecondsAtLastSubmit(), 400.0);
  const auto stats = metrics::collect(s, "x");
  EXPECT_DOUBLE_EQ(stats.steadyUtilization, 400.0 / (8.0 * 100.0));
}

TEST(SteadyUtilization, ZeroWindowIsZero) {
  const auto trace = makeTrace(8, {{0, 100, 4}, {0, 100, 4}});
  ScriptedPolicy policy;
  sim::Simulator s(trace, policy);
  s.run();
  const auto stats = metrics::collect(s, "x");
  EXPECT_DOUBLE_EQ(stats.steadyUtilization, 0.0);  // window has length 0
}

// --- pinned regressions -------------------------------------------------------------

TEST(Regression, ConservativeSameInstantCompletionCascade) {
  // Two running jobs ending at the same instant, with reservations anchored
  // exactly at that instant. Historically the profile padded still-running
  // jobs by 1 s and the re-anchoring CHECK fired ("guarantee regressed
  // 100 -> 101"). The deferral logic must ride out the cascade.
  sched::DepthBackfill policy(sched::DepthConfig{sched::kUnlimitedDepth});
  const auto trace = makeTrace(
      16, {{0, 100, 8, 100}, {0, 100, 8, 100}, {1, 50, 16}, {2, 50, 16}});
  sim::Simulator s(trace, policy);
  s.run();
  EXPECT_EQ(s.exec(2).firstStart, 100);
  EXPECT_EQ(s.exec(3).firstStart, 150);
}

TEST(Regression, ConservativeLargeTraceNoOversubscription) {
  // The arrival-path variant of the same bug oversubscribed the profile on
  // big traces ("19 free, adding 38"). Just running to completion is the
  // assertion — the profile CHECKs internally.
  const auto trace = workload::generateTrace(workload::sdscConfig(2000, 31));
  const auto stats =
      core::runSimulation(trace, sched::specFromToken("conservative"));
  EXPECT_EQ(stats.jobs.size(), 2000u);
}

TEST(Regression, IsWideGrantUnderOverheadTerminates) {
  // The IS livelock: a wide job's immediate-service victims drained, the
  // greedy dispatcher resumed them instantly, and the grant retried forever.
  // The pending-grant fence must break the cycle.
  sched::IsConfig cfg;
  sched::ImmediateService policy(cfg);
  sched::FixedOverhead overhead(15, 15);
  std::vector<J> jobs;
  jobs.push_back({0, 4000, 5});
  jobs.push_back({0, 4000, 3});
  jobs.push_back({700, 300, 8});  // machine-wide: needs both victims
  for (int i = 0; i < 10; ++i) jobs.push_back({800 + i * 50, 100, 2});
  const auto trace = makeTrace(8, jobs);
  sim::Simulator::Config config;
  config.overhead = &overhead;
  sim::Simulator s(trace, policy, config);
  s.run();  // must terminate
  for (JobId i = 0; i < jobs.size(); ++i)
    EXPECT_EQ(s.state(i), sim::JobState::Finished);
}

TEST(Regression, SuspendDuringReadBackChargesElapsedOnly) {
  // A job suspended in the middle of its resume read-back must charge only
  // the elapsed overhead (wait identity: TAT = runtime + wait + elapsed
  // read-back).
  const auto trace = makeTrace(8, {{0, 100, 4}});
  sched::FixedOverhead overhead(0, 50);
  ScriptedPolicy policy;
  policy.arrival = [](sim::Simulator& s, JobId j) {
    s.startJob(j);
    s.scheduleTimer(30, 1);   // suspend + resume (read-back 50 s starts)
    s.scheduleTimer(50, 2);   // suspend again: only 20 s of read-back done
    s.scheduleTimer(60, 3);   // final resume
  };
  policy.timer = [](sim::Simulator& s, std::uint64_t tag) {
    if (tag == 1) {
      s.suspendJob(0);
      s.resumeJob(0);
    } else if (tag == 2) {
      s.suspendJob(0);
      EXPECT_EQ(s.exec(0).resumeOverheadElapsed, 20);
      EXPECT_EQ(s.exec(0).remainingWork, 70);  // no work during read-back
    } else {
      s.resumeJob(0);
    }
  };
  sim::Simulator::Config config;
  config.overhead = &overhead;
  sim::Simulator s(trace, policy, config);
  s.run();
  const auto& x = s.exec(0);
  // Timeline: work 0-30 (30), read-back 30-50 (interrupted at 20 s),
  // suspended 50-60, read-back 60-110, work 110-180.
  EXPECT_EQ(x.finish, 180);
  EXPECT_EQ(x.resumeOverheadElapsed, 70);  // 20 partial + 50 full
  EXPECT_EQ(s.accumulatedWait(0) + 100 + x.resumeOverheadElapsed, x.finish);
}

}  // namespace
}  // namespace sps
