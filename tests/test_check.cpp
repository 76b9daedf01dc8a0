// sps::check (`ctest -L check`): each invariant must FIRE on a corrupted
// history and stay SILENT on a golden run.
//
// The simulator cannot be coaxed into violating its own invariants
// end-to-end (that is the point of the oracle), so the fire half drives the
// validator cores with corrupted streams directly, and — for the run-level
// guarantee/TSS checks — uses the InvariantChecker probe seams to make a
// healthy run look like the policy lied. The silent half runs every kernel
// policy under both kernel modes with everything armed at stride 1.
#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <string>

#include "check/check_config.hpp"
#include "check/diff_harness.hpp"
#include "check/invariants.hpp"
#include "core/simulation.hpp"
#include "obs/counters.hpp"
#include "helpers.hpp"
#include "sched/core/reservation_ledger.hpp"
#include "sched/depth_backfill.hpp"
#include "sched/overhead.hpp"
#include "sched/selective_suspension.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"

namespace sps::check {
namespace {

using sim::JobState;
using test::J;
using test::makeTrace;

// --- CheckConfig ----------------------------------------------------------

TEST(CheckConfig, OffByDefaultAndAllArmsEverything) {
  EXPECT_FALSE(CheckConfig{}.any());
  EXPECT_FALSE(core::SimulationOptions{}.check.any());
  const CheckConfig all = CheckConfig::all();
  EXPECT_TRUE(all.capacity && all.conservation && all.guarantees &&
              all.tssBound && all.ledger && all.liveness);
  EXPECT_TRUE(all.any());
  EXPECT_EQ(CheckConfig::all(0).auditStride, 1u);  // stride 0 would hang
}

// --- TransitionAudit (corrupted streams) ----------------------------------

TEST(TransitionAudit, IllegalEdgeFires) {
  TransitionAudit audit;
  EXPECT_THROW(audit.onTransition(0, JobState::NotArrived, JobState::Running,
                                  0),
               InvariantError);
}

TEST(TransitionAudit, ResurrectionFires) {
  TransitionAudit audit;
  audit.onTransition(0, JobState::NotArrived, JobState::Queued, 0);
  audit.onTransition(0, JobState::Queued, JobState::Running, 1);
  audit.onTransition(0, JobState::Running, JobState::Finished, 2);
  EXPECT_THROW(audit.onTransition(0, JobState::Finished, JobState::Queued, 3),
               InvariantError);
}

TEST(TransitionAudit, FromContradictingHistoryFires) {
  TransitionAudit audit;
  audit.onTransition(0, JobState::NotArrived, JobState::Queued, 0);
  // The stream claims the job is Suspended, but history left it Queued.
  EXPECT_THROW(audit.onTransition(0, JobState::Suspended, JobState::Running,
                                  1),
               InvariantError);
}

TEST(TransitionAudit, DoubleArrivalFires) {
  TransitionAudit audit;
  audit.onTransition(0, JobState::NotArrived, JobState::Queued, 0);
  EXPECT_THROW(audit.onTransition(0, JobState::NotArrived, JobState::Queued,
                                  1),
               InvariantError);
}

TEST(TransitionAudit, UnfinishedJobFailsFinalize) {
  TransitionAudit audit;
  audit.onTransition(0, JobState::NotArrived, JobState::Queued, 0);
  audit.onTransition(0, JobState::Queued, JobState::Running, 1);
  EXPECT_THROW(audit.finalize(1), InvariantError);  // never finished
}

TEST(TransitionAudit, MissingJobFailsFinalize) {
  TransitionAudit audit;
  audit.onTransition(0, JobState::NotArrived, JobState::Queued, 0);
  audit.onTransition(0, JobState::Queued, JobState::Running, 1);
  audit.onTransition(0, JobState::Running, JobState::Finished, 2);
  EXPECT_THROW(audit.finalize(2), InvariantError);  // one job never arrived
}

TEST(TransitionAudit, GoldenLifecycleWithSuspensionBalances) {
  TransitionAudit audit;
  audit.onTransition(0, JobState::NotArrived, JobState::Queued, 0);
  audit.onTransition(0, JobState::Queued, JobState::Running, 1);
  audit.onTransition(0, JobState::Running, JobState::Suspending, 2);
  audit.onTransition(0, JobState::Suspending, JobState::Suspended, 3);
  audit.onTransition(0, JobState::Suspended, JobState::Running, 4);
  audit.onTransition(0, JobState::Running, JobState::Finished, 5);
  EXPECT_NO_THROW(audit.finalize(1));
  EXPECT_EQ(audit.tally(0).suspensions, 1u);
  EXPECT_EQ(audit.tally(0).resumes, 1u);
}

// --- CapacityAudit (corrupted streams) ------------------------------------

TEST(CapacityAudit, OverlappingHoldFires) {
  CapacityAudit audit(8);
  audit.hold(0, sim::ProcSet::firstN(4), 0);
  sim::ProcSet overlapping;
  overlapping.insert(3);
  overlapping.insert(4);
  EXPECT_THROW(audit.hold(1, overlapping, 1), InvariantError);
}

TEST(CapacityAudit, DoubleHoldBySameJobFires) {
  CapacityAudit audit(8);
  audit.hold(0, sim::ProcSet::firstN(2), 0);
  sim::ProcSet other;
  other.insert(5);
  EXPECT_THROW(audit.hold(0, other, 1), InvariantError);
}

TEST(CapacityAudit, OutOfMachineHoldFires) {
  CapacityAudit audit(4);
  sim::ProcSet outside;
  outside.insert(7);  // machine has procs 0-3
  EXPECT_THROW(audit.hold(0, outside, 0), InvariantError);
}

TEST(CapacityAudit, ReleaseWithoutHoldFires) {
  CapacityAudit audit(8);
  EXPECT_THROW(audit.release(0, 0), InvariantError);
}

TEST(CapacityAudit, FreeSetOverlappingHeldFires) {
  CapacityAudit audit(8);
  audit.hold(0, sim::ProcSet::firstN(4), 0);
  // Machine claims everything is free while job 0 holds 0-3.
  EXPECT_THROW(audit.verify(sim::ProcSet::firstN(8), 0), InvariantError);
}

TEST(CapacityAudit, LeakedProcessorFires) {
  CapacityAudit audit(8);
  audit.hold(0, sim::ProcSet::firstN(4), 0);
  // Free set misses proc 7: neither held nor free — leaked.
  EXPECT_THROW(audit.verify(sim::ProcSet::firstN(7) - sim::ProcSet::firstN(4),
                            0),
               InvariantError);
}

TEST(CapacityAudit, GoldenHoldReleaseVerifies) {
  CapacityAudit audit(8);
  audit.hold(0, sim::ProcSet::firstN(4), 0);
  EXPECT_NO_THROW(
      audit.verify(sim::ProcSet::firstN(8) - sim::ProcSet::firstN(4), 0));
  audit.release(0, 1);
  EXPECT_NO_THROW(audit.verify(sim::ProcSet::firstN(8), 1));
  EXPECT_EQ(audit.heldCount(), 0u);
}

TEST(CapacityAudit, ResumeOffTheSuspendedSetFires) {
  CapacityAudit audit(8);
  audit.owe(0, sim::ProcSet::firstN(4));
  EXPECT_THROW(audit.reclaim(0, sim::ProcSet::firstN(3), 10), InvariantError);
  audit.owe(1, sim::ProcSet::firstN(2));
  EXPECT_NO_THROW(audit.reclaim(1, sim::ProcSet::firstN(2), 10));
  EXPECT_THROW(audit.reclaim(1, sim::ProcSet::firstN(2), 20), InvariantError);
  audit.owe(2, sim::ProcSet::firstN(2));
  audit.forgive(2);
  EXPECT_THROW(audit.reclaim(2, sim::ProcSet::firstN(2), 30), InvariantError);
}

// --- GuaranteeAudit (corrupted streams) -----------------------------------

TEST(GuaranteeAudit, RegressionFires) {
  GuaranteeAudit audit;
  audit.observe(0, 100, 0);
  EXPECT_NO_THROW(audit.observe(0, 90, 1));  // compression: fine
  EXPECT_THROW(audit.observe(0, 95, 2), InvariantError);  // moved later
}

TEST(GuaranteeAudit, LostGuaranteeFires) {
  GuaranteeAudit audit;
  audit.observe(0, 100, 0);
  EXPECT_THROW(audit.observe(0, kNoTime, 1), InvariantError);
}

TEST(GuaranteeAudit, NeverGuaranteedStaysSilent) {
  GuaranteeAudit audit;
  EXPECT_NO_THROW(audit.observe(0, kNoTime, 0));
  EXPECT_NO_THROW(audit.observe(0, kNoTime, 1));
  EXPECT_NO_THROW(audit.observe(0, 50, 2));  // first real guarantee
}

TEST(GuaranteeAudit, ForgetConsumesTheAnchor) {
  GuaranteeAudit audit;
  audit.observe(0, 100, 0);
  audit.forget(0);  // started
  // A fresh (later) guarantee after restart bookkeeping is not a
  // regression of the consumed one.
  EXPECT_NO_THROW(audit.observe(0, 500, 1));
}

// --- checkTssBound --------------------------------------------------------

TEST(TssBound, SuspensionAtOrPastLimitFires) {
  EXPECT_THROW(checkTssBound(0, 5.0, 5.0, 0), InvariantError);
  EXPECT_THROW(checkTssBound(0, 9.0, 5.0, 0), InvariantError);
  EXPECT_NO_THROW(checkTssBound(0, 4.99, 5.0, 0));
}

// --- run-level fire tests (probe seams) -----------------------------------

TEST(InvariantChecker, LyingGuaranteeProbeFires) {
  // A probe whose guarantee drifts later on every poll simulates a policy
  // whose anchors regress; the epoch audit (stride 1) must catch it.
  CheckConfig cfg;
  cfg.guarantees = true;
  cfg.auditStride = 1;
  sched::DepthBackfill policy(sched::DepthConfig{sched::kUnlimitedDepth});
  const auto trace = makeTrace(4, {{0, 100, 4}, {1, 100, 4}, {2, 100, 4}});
  sim::Simulator s(trace, policy);
  InvariantChecker checker(cfg);
  checker.arm(s, policy);
  Time drifting = 1000;
  checker.setGuaranteeProbe([&drifting](JobId) { return drifting += 10; });
  EXPECT_THROW(s.run(), InvariantError);
}

TEST(InvariantChecker, LyingTssProbeFiresOnSuspension) {
  // Real SS run that provably suspends (short job at half-width — wide enough for the half-width rule — starves behind a
  // full-width hog until the SF ratio trips). The probe claims the victim's
  // protection limit is 1.0; any slowdown is >= 1, so the first suspension
  // must fire.
  CheckConfig cfg;
  cfg.tssBound = true;
  sched::SsConfig ss;
  ss.suspensionFactor = 1.5;
  sched::SelectiveSuspension policy(ss);
  const auto trace = makeTrace(8, {{0, 100000, 8}, {10, 10, 4}});
  sim::Simulator s(trace, policy);
  InvariantChecker checker(cfg);
  checker.arm(s, policy);
  checker.setTssProbe(
      [](const sim::Simulator&, JobId) { return std::optional<double>(1.0); });
  EXPECT_THROW(s.run(), InvariantError);
}

TEST(InvariantChecker, SuspensionsHappenWithoutTheLyingProbe) {
  // Guard for the test above: same workload, no probe — silent, and the
  // run really does suspend (so the fire test exercised the bound path).
  sched::SsConfig ss;
  ss.suspensionFactor = 1.5;
  sched::SelectiveSuspension policy(ss);
  const auto trace = makeTrace(8, {{0, 100000, 8}, {10, 10, 4}});
  sim::Simulator s(trace, policy);
  InvariantChecker checker(CheckConfig::all(1));
  checker.arm(s, policy);
  EXPECT_NO_THROW(s.run());
  EXPECT_NO_THROW(checker.finalize(s));
  EXPECT_GT(s.totalSuspensions(), 0u);
}

TEST(InvariantChecker, ForcedLocalResumeCheckFiresOnMigration) {
  // The chaos policy resumes half its suspended jobs on any free
  // processors. arm() finds it is not a local-preemption policy, so the
  // run is clean; forced on, the exact-set resume check must fire.
  const auto trace = test::chaosTrace(4);
  for (const bool forced : {false, true}) {
    test::ChaosPolicy policy(4, /*allowMigration=*/true);
    sim::Simulator s(trace, policy);
    InvariantChecker checker(CheckConfig::all(1));
    if (forced) checker.setLocalResumeCheck(true);
    checker.arm(s, policy);
    if (forced) {
      EXPECT_THROW(s.run(), InvariantError);
    } else {
      EXPECT_NO_THROW(s.run());
      EXPECT_NO_THROW(checker.finalize(s));
    }
  }
}

TEST(InvariantChecker, CorruptedLedgerProfileFires) {
  // Mid-run, poke a phantom busy interval into the incremental profile via
  // the ledger's test seam: the next epoch audit's from-scratch rebuild
  // cannot match and must fire.
  CheckConfig cfg;
  cfg.ledger = true;
  cfg.auditStride = 1;
  sched::DepthBackfill policy(sched::DepthConfig{sched::kUnlimitedDepth});
  const auto trace =
      makeTrace(4, {{0, 100, 2}, {0, 100, 4}, {50, 100, 1}, {60, 100, 4}});
  sim::Simulator s(trace, policy);
  InvariantChecker checker(cfg);
  checker.arm(s, policy);
  auto& ledger = const_cast<sched::kernel::ReservationLedger&>(policy.ledger());
  std::uint64_t events = 0;
  s.observers().onEventDispatched(
      [&ledger, &events](const sim::Simulator&, const auto&) {
        if (++events == 3)
          // Far beyond the trace horizon the profile is fully free, so
          // the poke itself cannot oversubscribe — only the audit objects.
          ledger.mutableProfile().addBusy(1000000000, 1000000100, 1);
      });
  EXPECT_THROW(s.run(), InvariantError);
}

// --- golden runs stay silent ----------------------------------------------

TEST(InvariantChecker, EveryPolicyBothKernelModesSilent) {
  // Adversarial (but healthy) workload through every fuzz policy token
  // under both kernel modes with everything armed at stride 1 — the
  // oracle's false-positive budget is zero.
  const workload::Trace trace = makeFuzzTrace(2026);
  for (const std::string& token : sched::knownPolicyTokens()) {
    SCOPED_TRACE(token);
    for (bool incremental : {true, false}) {
      SCOPED_TRACE(incremental ? "incremental" : "rebuild");
      FuzzCase c;
      c.policyToken = token;
      c.overhead = false;
      c.trace = trace;
      const DiffHarness harness;
      std::string violation;
      (void)harness.runOnce(c,
                            incremental
                                ? sched::kernel::KernelMode::Incremental
                                : sched::kernel::KernelMode::Rebuild,
                            &violation);
      EXPECT_EQ(violation, "");
    }
  }
}

TEST(DiffHarness, RecordsEveryTransitionOfTheRun) {
  // DiffHarness builds its runs through core::SimulationHarness and records
  // transitions through options.instrument: both lanes must record one
  // entry per transition the plain run counts, overhead model included,
  // and a finish for every job.
  FuzzCase c = makeFuzzCase(7, "ss:2");
  c.overhead = true;
  sched::DiskSwapOverhead overhead(c.trace);
  core::SimulationOptions options;
  options.sim.overhead = &overhead;
  const metrics::RunStats stats =
      core::runSimulation(c.trace, resolveCaseSpec(c), options);
  const std::uint64_t transitions =
      stats.counters.value(obs::Counter::SimTransitions);
  ASSERT_GT(transitions, 0u);
  const DiffHarness harness;
  std::string violation;
  for (const bool streamed : {false, true}) {
    SCOPED_TRACE(streamed ? "streamed" : "batch");
    const RunRecord record =
        streamed ? harness.runStreamed(
                       c, sched::kernel::KernelMode::Incremental, 3, &violation)
                 : harness.runOnce(c, sched::kernel::KernelMode::Incremental,
                                   &violation);
    EXPECT_EQ(violation, "");
    EXPECT_EQ(record.transitions.size(), transitions);
    ASSERT_EQ(record.finish.size(), c.trace.jobs.size());
    for (const Time finish : record.finish) EXPECT_NE(finish, kNoTime);
  }
}

TEST(InvariantChecker, RunSimulationWiringArmsAndAudits) {
  // options.check flows through core::runSimulation, and the obs counters
  // prove the oracle actually ran.
  const core::PolicySpec spec = sched::specFromToken("conservative");
  core::SimulationOptions options;
  options.check = CheckConfig::all(1);
  const auto trace = makeTrace(4, {{0, 100, 3}, {1, 100, 4}, {2, 50, 1}});
  EXPECT_NO_THROW((void)core::runSimulation(trace, spec, options));
}

TEST(InvariantChecker, EpochAuditsRespectStride) {
  const auto trace = makeTrace(4, {{0, 100, 3}, {1, 100, 4}, {2, 50, 1}});
  auto countAudits = [&trace](std::uint32_t stride) {
    sched::DepthBackfill policy(sched::DepthConfig{sched::kUnlimitedDepth});
    sim::Simulator s(trace, policy);
    InvariantChecker checker(CheckConfig::all(stride));
    checker.arm(s, policy);
    s.run();
    checker.finalize(s);
    return checker.epochAudits();
  };
  const std::uint64_t dense = countAudits(1);
  const std::uint64_t sparse = countAudits(4);
  EXPECT_GT(dense, 0u);
  EXPECT_LT(sparse, dense);
}

TEST(InvariantChecker, DisabledConfigRegistersNothing) {
  sched::DepthBackfill policy(sched::DepthConfig{sched::kUnlimitedDepth});
  const auto trace = makeTrace(4, {{0, 100, 3}, {1, 50, 1}});
  sim::Simulator s(trace, policy);
  InvariantChecker checker{CheckConfig{}};
  checker.arm(s, policy);
  s.run();
  EXPECT_EQ(checker.epochAudits(), 0u);
  EXPECT_EQ(s.counters().value(obs::Counter::CheckTransitionAudits), 0u);
  EXPECT_EQ(s.counters().value(obs::Counter::CheckEpochAudits), 0u);
}

// --- Liveness (a stranding policy) -----------------------------------------

/// Never starts anything: every arrival and every tick only re-arms the
/// timer, so its jobs wait forever and, unchecked, run() never returns.
class StrandingPolicy final : public sim::SchedulingPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "strand"; }
  void onJobArrival(sim::Simulator& s, JobId) override { arm(s); }
  void onJobCompletion(sim::Simulator&, JobId) override {}
  void onTimer(sim::Simulator& s, std::uint64_t) override {
    armed_ = false;
    arm(s);
  }

 private:
  void arm(sim::Simulator& s) {
    if (armed_) return;
    armed_ = true;
    s.scheduleTimer(s.now() + 60, 0);
  }
  bool armed_ = false;
};

TEST(Liveness, StrandedJobRaisesWithinASecond) {
  StrandingPolicy policy;
  const auto trace = makeTrace(4, {{0, 100, 2}, {5, 100, 1}});
  sim::Simulator s(trace, policy);
  InvariantChecker checker(CheckConfig::all(1));
  checker.arm(s, policy);
  const auto start = std::chrono::steady_clock::now();
  try {
    s.run();
    FAIL() << "a stranded run returned";
  } catch (const InvariantError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("liveness"), std::string::npos) << what;
    EXPECT_NE(what.find(" 0 (queued)"), std::string::npos) << what;
    EXPECT_NE(what.find(" 1 (queued)"), std::string::npos) << what;
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
  // The tick at 60 finds the run stalled; the next one fires.
  EXPECT_EQ(s.now(), 2 * 60);
}

TEST(Liveness, StreamedRunStallsOnlyOnceDrainBegins) {
  // Until drain() a streamed run may still receive the submission that
  // unblocks it, so a quiet stretch is no stall.
  StrandingPolicy policy;
  sim::Simulator s("stream", 4, policy, {});
  CheckConfig config;
  config.liveness = true;
  InvariantChecker checker(config);
  checker.arm(s, policy);
  workload::Job job;
  job.submit = 0;
  job.runtime = job.estimate = 100;
  job.procs = 2;
  (void)s.submit(job);
  EXPECT_NO_THROW(s.runUntil(100 * 60));
  EXPECT_FALSE(s.arrivalsExhausted());
  EXPECT_THROW(s.drain(), InvariantError);
  EXPECT_TRUE(s.arrivalsExhausted());
}

TEST(Liveness, AloneRunsNoSampledAudit) {
  // Liveness alone watches timers only: no sampled audit, no transition
  // audit.
  sched::DepthBackfill policy(sched::DepthConfig{sched::kUnlimitedDepth});
  const auto trace = makeTrace(4, {{0, 100, 3}, {1, 50, 1}});
  sim::Simulator s(trace, policy);
  CheckConfig config;
  config.liveness = true;
  InvariantChecker checker(config);
  checker.arm(s, policy);
  s.run();
  EXPECT_EQ(checker.epochAudits(), 0u);
  EXPECT_EQ(s.counters().value(obs::Counter::CheckTransitionAudits), 0u);
  EXPECT_EQ(s.counters().value(obs::Counter::CheckEpochAudits), 0u);
}

TEST(InvariantChecker, CountersRecordAuditVolume) {
  sched::DepthBackfill policy(sched::DepthConfig{sched::kUnlimitedDepth});
  const auto trace = makeTrace(4, {{0, 100, 3}, {1, 100, 4}, {2, 50, 1}});
  sim::Simulator s(trace, policy);
  InvariantChecker checker(CheckConfig::all(1));
  checker.arm(s, policy);
  s.run();
  checker.finalize(s);
  EXPECT_GT(s.counters().value(obs::Counter::CheckTransitionAudits), 0u);
  EXPECT_GT(s.counters().value(obs::Counter::CheckEpochAudits), 0u);
}

}  // namespace
}  // namespace sps::check
