// Property-based tests: randomized small workloads x every scheduler, with
// invariants audited throughout — conservation, no oversubscription, wait
// accounting, determinism, and the SF law on randomized task pairs.
#include <gtest/gtest.h>

#include <cmath>

#include "core/simulation.hpp"
#include "helpers.hpp"
#include "metrics/collector.hpp"
#include "sched/overhead.hpp"
#include "sched/selective_suspension.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "workload/synthetic.hpp"

namespace sps {
namespace {

using core::PolicyKind;
using core::PolicySpec;
using test::J;
using test::makeTrace;

workload::Trace randomTrace(std::uint64_t seed, std::size_t n = 60,
                            std::uint32_t machine = 16) {
  Rng rng(seed);
  std::vector<J> jobs;
  Time t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    t += rng.uniformInt(0, 400);
    const Time runtime = rng.uniformInt(1, 2000);
    const auto procs =
        static_cast<std::uint32_t>(rng.uniformInt(1, machine));
    const Time estimate =
        runtime * rng.uniformInt(1, 4);  // mildly inaccurate
    const auto mem = static_cast<std::uint32_t>(rng.uniformInt(1, 64));
    jobs.push_back({t, runtime, procs, estimate, mem});
  }
  return makeTrace(machine, jobs);
}

struct PropertyCase {
  PolicyKind kind;
  /// Depth-BF at unlimited depth: the paper's conservative backfilling.
  bool conservative;
  std::uint64_t seed;
  bool overhead;
};

PolicySpec caseSpec(const PropertyCase& param) {
  PolicySpec spec;
  spec.kind = param.kind;
  if (param.conservative) spec.depth.depth = sched::kUnlimitedDepth;
  return spec;
}

std::string caseName(const ::testing::TestParamInfo<PropertyCase>& info) {
  std::string name = info.param.conservative
                         ? "Conservative"
                         : core::policyKindName(info.param.kind);
  name += "_seed" + std::to_string(info.param.seed);
  name += info.param.overhead ? "_oh" : "_free";
  return name;
}

class SchedulerProperty : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(SchedulerProperty, InvariantsHoldOverRandomWorkload) {
  const auto& param = GetParam();
  const workload::Trace trace = randomTrace(param.seed);
  auto policy = core::makePolicy(caseSpec(param));

  sched::DiskSwapOverhead overhead(trace, 16.0);  // fast disk: small drains
  sim::Simulator::Config config;
  if (param.overhead) config.overhead = &overhead;

  sim::Simulator s(trace, *policy, config);
  s.run();
  s.auditState();

  double work = 0.0;
  for (const workload::Job& j : trace.jobs) {
    const auto& x = s.exec(j.id);
    // Every job finishes, after doing all its work.
    EXPECT_EQ(s.state(j.id), sim::JobState::Finished);
    EXPECT_EQ(x.remainingWork, 0);
    EXPECT_GE(x.firstStart, j.submit);
    EXPECT_GE(x.finish, x.firstStart + j.runtime);
    // Wait accounting: turnaround = runtime + wait + elapsed read-back
    // (drain write-outs overlap with waiting and are inside `wait`).
    EXPECT_EQ(s.accumulatedWait(j.id) + j.runtime + x.resumeOverheadElapsed,
              x.finish - j.submit);
    // Non-preemptive policies must not suspend.
    if (param.kind == PolicyKind::Fcfs ||
        param.kind == PolicyKind::DepthBackfill ||
        param.kind == PolicyKind::Easy) {
      EXPECT_EQ(x.suspendCount, 0u);
    }
    work += static_cast<double>(j.runtime) * j.procs +
            static_cast<double>(x.overheadTotal()) * j.procs;
  }
  // Machine busy integral == work + overhead proc-seconds.
  EXPECT_NEAR(s.busyProcSeconds(), work, 1e-6);
}

TEST_P(SchedulerProperty, BitIdenticalReplay) {
  const auto& param = GetParam();
  const workload::Trace trace = randomTrace(param.seed ^ 0xabcdef);
  const PolicySpec spec = caseSpec(param);
  sched::DiskSwapOverhead overhead(trace, 16.0);
  core::SimulationOptions options;
  if (param.overhead) options.sim.overhead = &overhead;
  const auto a = core::runSimulation(trace, spec, options);
  const auto b = core::runSimulation(trace, spec, options);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].firstStart, b.jobs[i].firstStart);
    EXPECT_EQ(a.jobs[i].finish, b.jobs[i].finish);
    EXPECT_EQ(a.jobs[i].suspendCount, b.jobs[i].suspendCount);
  }
  EXPECT_EQ(a.eventsProcessed, b.eventsProcessed);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, SchedulerProperty,
    ::testing::Values(
        PropertyCase{PolicyKind::Fcfs, false, 1, false},
        PropertyCase{PolicyKind::Fcfs, false, 2, false},
        PropertyCase{PolicyKind::DepthBackfill, true, 1, false},
        PropertyCase{PolicyKind::DepthBackfill, true, 2, false},
        PropertyCase{PolicyKind::DepthBackfill, true, 3, false},
        PropertyCase{PolicyKind::Easy, false, 1, false},
        PropertyCase{PolicyKind::Easy, false, 2, false},
        PropertyCase{PolicyKind::Easy, false, 3, false},
        PropertyCase{PolicyKind::SelectiveSuspension, false, 1, false},
        PropertyCase{PolicyKind::SelectiveSuspension, false, 2, false},
        PropertyCase{PolicyKind::SelectiveSuspension, false, 3, false},
        PropertyCase{PolicyKind::SelectiveSuspension, false, 1, true},
        PropertyCase{PolicyKind::SelectiveSuspension, false, 2, true},
        PropertyCase{PolicyKind::ImmediateService, false, 1, false},
        PropertyCase{PolicyKind::ImmediateService, false, 2, false},
        PropertyCase{PolicyKind::ImmediateService, false, 1, true},
        PropertyCase{PolicyKind::ImmediateService, false, 2, true},
        PropertyCase{PolicyKind::DepthBackfill, false, 1, false},
        PropertyCase{PolicyKind::DepthBackfill, false, 2, false},
        PropertyCase{PolicyKind::Gang, false, 1, false},
        PropertyCase{PolicyKind::Gang, false, 2, false},
        PropertyCase{PolicyKind::Gang, false, 1, true},
        PropertyCase{PolicyKind::Gang, false, 2, true}),
    caseName);

// --- SF law on randomized equal task pairs -----------------------------------

class TwoTaskSfLaw : public ::testing::TestWithParam<int> {};

TEST_P(TwoTaskSfLaw, SuspensionCountMatchesTheory) {
  // n suspensions occur for s in [2^(1/(n+1)), 2^(1/n)); verify n for a
  // randomized task length and several SF values per seed.
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const Time length = 3600 * rng.uniformInt(1, 6);
  for (const int n : {0, 1, 2, 3}) {
    // Pick s in the middle of the band for n suspensions.
    const double lo = std::pow(2.0, 1.0 / (n + 1));
    const double hi = n == 0 ? 2.5 : std::pow(2.0, 1.0 / n);
    const double s = 0.5 * (lo + hi);
    sched::SsConfig cfg;
    cfg.suspensionFactor = s;
    sched::SelectiveSuspension policy(cfg);
    const auto trace = makeTrace(8, {{0, length, 8}, {0, length, 8}});
    sim::Simulator simulator(trace, policy);
    simulator.run();
    // The 60 s preemption granularity can delay a boundary crossing by one
    // tick, so allow the count to undershoot by at most one when the tick
    // lands after the other task completed.
    EXPECT_LE(simulator.totalSuspensions(), static_cast<std::uint64_t>(n));
    EXPECT_GE(simulator.totalSuspensions() + 1,
              static_cast<std::uint64_t>(n));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TwoTaskSfLaw, ::testing::Range(1, 9));

// --- SS-specific randomized properties ---------------------------------------

class SsRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SsRandom, NoJobStarves) {
  const workload::Trace trace = randomTrace(GetParam(), 80);
  PolicySpec spec;
  spec.kind = PolicyKind::SelectiveSuspension;
  spec.ss.suspensionFactor = 1.5;
  const auto stats = core::runSimulation(trace, spec);
  for (const auto& j : stats.jobs) EXPECT_GE(j.finish, j.submit + j.runtime);
}

TEST_P(SsRandom, TssNeverSuspendsProtectedVictims) {
  // With limits at 1.0 every running job is protected the moment it starts
  // (xfactor >= 1 always): TSS must degrade to zero suspensions.
  const workload::Trace trace = randomTrace(GetParam() * 31, 60);
  PolicySpec spec;
  spec.kind = PolicyKind::SelectiveSuspension;
  spec.ss.tssLimits.emplace();
  spec.ss.tssLimits->fill(1.0);
  const auto stats = core::runSimulation(trace, spec);
  EXPECT_EQ(stats.suspensions, 0u);
}

TEST_P(SsRandom, HalfWidthRuleNeverViolated) {
  // Direct observation is internal, so construct a workload where any
  // suspension of the single wide job would prove a violation: every other
  // job is sequential (1 proc), and 2 x 1 < 8, so with the rule ON nothing
  // may ever evict the wide job once it runs.
  Rng rng(GetParam() * 77);
  std::vector<J> jobs;
  Time t = 0;
  for (int i = 0; i < 50; ++i) {
    t += rng.uniformInt(0, 300);
    if (i == 20) jobs.push_back({t, 4000, 8});
    else jobs.push_back({t, rng.uniformInt(10, 400), 1});
  }
  const auto trace = makeTrace(8, jobs);
  PolicySpec spec;
  spec.kind = PolicyKind::SelectiveSuspension;
  const auto stats = core::runSimulation(trace, spec);
  for (const auto& j : stats.jobs)
    if (j.procs == 8) {
      EXPECT_EQ(j.suspendCount, 0u) << "wide job " << j.id << " suspended";
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SsRandom,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace sps
