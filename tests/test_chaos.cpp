// Chaos fuzzing: a policy that takes random (but legal) actions against the
// simulator, checking that the kernel's invariants hold under arbitrary
// interleavings of start/suspend/resume/migrate — far beyond what any
// well-behaved scheduler exercises.
#include <gtest/gtest.h>

#include "check/invariants.hpp"
#include "helpers.hpp"
#include "metrics/collector.hpp"
#include "sched/overhead.hpp"
#include "sim/simulator.hpp"

namespace sps {
namespace {

using test::ChaosPolicy;

struct ChaosCase {
  std::uint64_t seed;
  bool migration;
  bool overhead;
};

class ChaosFuzz : public ::testing::TestWithParam<ChaosCase> {};

TEST_P(ChaosFuzz, KernelInvariantsSurviveRandomActions) {
  const auto& param = GetParam();
  const auto trace = test::chaosTrace(param.seed);

  ChaosPolicy policy(param.seed, param.migration);
  sched::DiskSwapOverhead overhead(trace, 32.0);
  sim::Simulator::Config config;
  if (param.overhead) config.overhead = &overhead;
  sim::Simulator s(trace, policy, config);
  // The full invariant oracle rides along at stride 1: chaos interleavings
  // must satisfy capacity/conservation like any well-behaved scheduler.
  // (ChaosPolicy exposes no guarantee/TSS/ledger probes, so those layers
  // arm as no-ops.)
  check::InvariantChecker checker(check::CheckConfig::all(1));
  checker.arm(s, policy);
  s.run();
  checker.finalize(s);
  EXPECT_GT(checker.epochAudits(), 0u);
  s.auditState();

  for (const auto& j : trace.jobs) {
    const auto& x = s.exec(j.id);
    EXPECT_EQ(s.state(j.id), sim::JobState::Finished);
    EXPECT_EQ(x.remainingWork, 0);
    EXPECT_GE(x.finish, j.submit + j.runtime);
    EXPECT_EQ(s.accumulatedWait(j.id) + j.runtime + x.resumeOverheadElapsed,
              x.finish - j.submit);
  }
  // Collector must accept whatever the chaos produced.
  const auto stats = metrics::collect(s, "chaos");
  EXPECT_EQ(stats.jobs.size(), trace.jobs.size());
  EXPECT_GE(stats.utilization, 0.0);
  EXPECT_LE(stats.utilization, 1.0 + 1e-9);
}

std::string chaosName(const ::testing::TestParamInfo<ChaosCase>& info) {
  std::string name = "seed" + std::to_string(info.param.seed);
  if (info.param.migration) name += "_mig";
  if (info.param.overhead) name += "_oh";
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ChaosFuzz,
    ::testing::Values(ChaosCase{1, false, false}, ChaosCase{2, false, false},
                      ChaosCase{3, false, false}, ChaosCase{4, true, false},
                      ChaosCase{5, true, false}, ChaosCase{6, false, true},
                      ChaosCase{7, false, true}, ChaosCase{8, true, true},
                      ChaosCase{9, true, true}, ChaosCase{10, true, true}),
    chaosName);

}  // namespace
}  // namespace sps
