// Integration tests: every scheduler end-to-end on calibrated synthetic
// workloads, checking the paper's qualitative claims hold on real-sized runs.
#include <gtest/gtest.h>

#include <cmath>

#include "core/experiment.hpp"
#include "core/simulation.hpp"
#include "metrics/category_stats.hpp"
#include "workload/estimate_model.hpp"
#include "workload/synthetic.hpp"
#include "workload/transforms.hpp"
#include "sched/overhead.hpp"

namespace sps {
namespace {

using core::PolicyKind;
using core::PolicySpec;

const workload::Trace& sdscTrace() {
  static const workload::Trace trace =
      workload::generateTrace(workload::sdscConfig(3000, 42));
  return trace;
}

const workload::Trace& ctcTrace() {
  static const workload::Trace trace =
      workload::generateTrace(workload::ctcConfig(3000, 42));
  return trace;
}

PolicySpec spec(PolicyKind kind, double sf = 2.0) {
  PolicySpec s;
  s.kind = kind;
  s.ss.suspensionFactor = sf;
  return s;
}

TEST(Integration, AllSchedulersCompleteTheTrace) {
  for (const char* token : {"fcfs", "conservative", "easy", "ss:2", "is"}) {
    const auto stats =
        core::runSimulation(sdscTrace(), sched::specFromToken(token));
    EXPECT_EQ(stats.jobs.size(), sdscTrace().jobs.size());
    for (const auto& j : stats.jobs) {
      EXPECT_GE(j.finish, j.submit + j.runtime);
      EXPECT_GE(j.firstStart, j.submit);
    }
  }
}

TEST(Integration, NonPreemptiveSchedulersNeverSuspend) {
  for (const char* token : {"fcfs", "conservative", "easy"}) {
    const auto stats =
        core::runSimulation(ctcTrace(), sched::specFromToken(token));
    EXPECT_EQ(stats.suspensions, 0u);
  }
}

TEST(Integration, BackfillingBeatsFcfsOnSlowdown) {
  const auto fcfs = core::runSimulation(sdscTrace(), spec(PolicyKind::Fcfs));
  const auto easy = core::runSimulation(sdscTrace(), spec(PolicyKind::Easy));
  EXPECT_LT(easy.meanBoundedSlowdown(), fcfs.meanBoundedSlowdown());
}

TEST(Integration, SsBeatsNsOnOverallSlowdown) {
  // The paper's headline: SS sharply reduces average slowdown vs NS.
  for (const workload::Trace* trace : {&ctcTrace(), &sdscTrace()}) {
    const auto ns = core::runSimulation(*trace, spec(PolicyKind::Easy));
    const auto ss =
        core::runSimulation(*trace, spec(PolicyKind::SelectiveSuspension));
    EXPECT_LT(ss.meanBoundedSlowdown(), ns.meanBoundedSlowdown() / 2.0)
        << trace->name;
  }
}

TEST(Integration, SsHelpsVeryShortCategoriesMost) {
  const auto ns = core::runSimulation(sdscTrace(), spec(PolicyKind::Easy));
  const auto ss =
      core::runSimulation(sdscTrace(), spec(PolicyKind::SelectiveSuspension));
  const auto nsCat = metrics::categorize16(ns.jobs);
  const auto ssCat = metrics::categorize16(ss.jobs);
  // VS-W and VS-VW: at least 3x improvement (paper: ~10-20x).
  const std::size_t vsW = workload::category16(workload::RunClass::VeryShort,
                                               workload::WidthClass::Wide);
  const std::size_t vsVW = workload::category16(
      workload::RunClass::VeryShort, workload::WidthClass::VeryWide);
  EXPECT_LT(ssCat[vsW].avgSlowdown(), nsCat[vsW].avgSlowdown() / 3.0);
  EXPECT_LT(ssCat[vsVW].avgSlowdown(), nsCat[vsVW].avgSlowdown() / 3.0);
}

TEST(Integration, SsCostsVeryLongJobsOnlyModestly) {
  // "a slight deterioration for the VL categories" — bounded here at 4x.
  const auto ns = core::runSimulation(sdscTrace(), spec(PolicyKind::Easy));
  const auto ss =
      core::runSimulation(sdscTrace(), spec(PolicyKind::SelectiveSuspension));
  const auto nsCat = metrics::categorize16(ns.jobs);
  const auto ssCat = metrics::categorize16(ss.jobs);
  for (std::size_t w = 0; w < workload::kNumWidthClasses; ++w) {
    const std::size_t c = workload::category16(
        workload::RunClass::VeryLong, static_cast<workload::WidthClass>(w));
    if (nsCat[c].empty() || ssCat[c].empty()) continue;
    EXPECT_LT(ssCat[c].avgSlowdown(),
              std::max(nsCat[c].avgSlowdown() * 4.0, 6.0))
        << workload::category16Name(c);
  }
}

TEST(Integration, IsBestForVeryShortWorstForLong) {
  const auto runs = core::compareSchemes(
      sdscTrace(), {spec(PolicyKind::SelectiveSuspension),
                    spec(PolicyKind::Easy), spec(PolicyKind::ImmediateService)});
  const auto ssCat = metrics::categorize16(runs[0].jobs);
  const auto isCat = metrics::categorize16(runs[2].jobs);
  // IS no worse than SS on every populated VS cell...
  for (std::size_t w = 0; w < workload::kNumWidthClasses; ++w) {
    const std::size_t c = workload::category16(
        workload::RunClass::VeryShort, static_cast<workload::WidthClass>(w));
    if (isCat[c].empty()) continue;
    EXPECT_LE(isCat[c].avgSlowdown(), ssCat[c].avgSlowdown() * 1.25)
        << workload::category16Name(c);
  }
  // ...and much worse on long-wide work.
  const std::size_t lVW = workload::category16(workload::RunClass::Long,
                                               workload::WidthClass::VeryWide);
  EXPECT_GT(isCat[lVW].avgSlowdown(), ssCat[lVW].avgSlowdown() * 2.0);
}

TEST(Integration, IsUtilizationCollapses) {
  const auto ns = core::runSimulation(sdscTrace(), spec(PolicyKind::Easy));
  const auto is =
      core::runSimulation(sdscTrace(), spec(PolicyKind::ImmediateService));
  EXPECT_LT(is.utilization, ns.utilization - 0.05);
}

TEST(Integration, SsUtilizationComparableToNs) {
  const auto ns = core::runSimulation(ctcTrace(), spec(PolicyKind::Easy));
  const auto ss =
      core::runSimulation(ctcTrace(), spec(PolicyKind::SelectiveSuspension));
  EXPECT_NEAR(ss.utilization, ns.utilization, 0.03);
}

TEST(Integration, TssCapsWorstCaseWithoutHurtingAverages) {
  const auto limits = core::bootstrapTssLimits(sdscTrace());
  PolicySpec ss = spec(PolicyKind::SelectiveSuspension);
  PolicySpec tss = ss;
  tss.ss.tssLimits = limits;
  const auto ssStats = core::runSimulation(sdscTrace(), ss);
  const auto tssStats = core::runSimulation(sdscTrace(), tss);
  // Averages stay in the same ballpark (within 50%).
  EXPECT_LT(tssStats.meanBoundedSlowdown(),
            ssStats.meanBoundedSlowdown() * 1.5 + 1.0);
  // The victim-protection limit suppresses preemptions...
  EXPECT_LT(tssStats.suspensions, ssStats.suspensions);
  // ...and caps how far a protected running job can be pushed: the worst
  // slowdown over the long classes stays in the same regime (per-seed noise
  // can move individual waiting jobs either way, so this is a loose bound —
  // the per-category panels are examined in bench_fig_tss_*).
  const auto ssCat = metrics::categorize16(ssStats.jobs);
  const auto tssCat = metrics::categorize16(tssStats.jobs);
  double ssWorstLong = 0, tssWorstLong = 0;
  for (std::size_t c = 8; c < 16; ++c) {  // L and VL rows
    ssWorstLong = std::max(ssWorstLong, ssCat[c].worstSlowdown());
    tssWorstLong = std::max(tssWorstLong, tssCat[c].worstSlowdown());
  }
  EXPECT_LE(tssWorstLong, ssWorstLong * 2.5 + 1.0);
}

TEST(Integration, OverheadBarelyMovesSsResults) {
  // Section V-A: "overhead does not significantly affect the performance of
  // the SS scheme".
  const sched::DiskSwapOverhead overhead(ctcTrace());
  core::SimulationOptions withOverhead;
  withOverhead.sim.overhead = &overhead;
  const auto plain =
      core::runSimulation(ctcTrace(), spec(PolicyKind::SelectiveSuspension));
  const auto loaded = core::runSimulation(
      ctcTrace(), spec(PolicyKind::SelectiveSuspension), withOverhead);
  EXPECT_LT(loaded.meanBoundedSlowdown(),
            plain.meanBoundedSlowdown() * 2.0 + 2.0);
  EXPECT_NEAR(loaded.utilization, plain.utilization, 0.05);
}

TEST(Integration, HigherLoadAmplifiesSsAdvantage) {
  // Section VI: SS improvements are more pronounced under high load.
  const auto base = workload::generateTrace(workload::sdscConfig(2500, 17));
  double prevRatio = 0.0;
  for (double factor : {1.0, 1.25}) {
    const auto scaled = workload::scaleLoad(base, factor);
    const auto ns = core::runSimulation(scaled, spec(PolicyKind::Easy));
    const auto ss =
        core::runSimulation(scaled, spec(PolicyKind::SelectiveSuspension));
    const double ratio =
        ns.meanBoundedSlowdown() / ss.meanBoundedSlowdown();
    EXPECT_GT(ratio, 1.0) << "factor " << factor;
    EXPECT_GT(ratio, prevRatio * 0.8) << "factor " << factor;
    prevRatio = ratio;
  }
}

TEST(Integration, InaccurateEstimatesPenalizeBadlyEstimatedJobs) {
  // Section V: with modal estimates, SS's residual VS penalty concentrates
  // in the badly-estimated group.
  workload::Trace trace = workload::generateTrace(workload::sdscConfig(3000, 21));
  workload::EstimateModelConfig est;
  est.kind = workload::EstimateModelKind::Modal;
  applyEstimates(trace, est);
  const auto ss =
      core::runSimulation(trace, spec(PolicyKind::SelectiveSuspension));
  const auto well =
      metrics::overallAggregate(ss.jobs, metrics::EstimateFilter::WellEstimated);
  const auto badly = metrics::overallAggregate(
      ss.jobs, metrics::EstimateFilter::BadlyEstimated);
  ASSERT_FALSE(well.empty());
  ASSERT_FALSE(badly.empty());
  EXPECT_GT(badly.avgSlowdown(), well.avgSlowdown());
}

TEST(Integration, LowerSfServesShortJobsBetter) {
  // Figs. 7-10: lower SF lowers VS-class slowdowns (more suspensions).
  const auto sf15 = core::runSimulation(
      sdscTrace(), spec(PolicyKind::SelectiveSuspension, 1.5));
  const auto sf5 = core::runSimulation(
      sdscTrace(), spec(PolicyKind::SelectiveSuspension, 5.0));
  EXPECT_GT(sf15.suspensions, sf5.suspensions);
  const auto c15 = metrics::categorize16(sf15.jobs);
  const auto c5 = metrics::categorize16(sf5.jobs);
  double vs15 = 0, vs5 = 0;  // aggregate over the whole VS row
  for (std::size_t c = 0; c < 4; ++c) {
    vs15 += c15[c].avgSlowdown();
    vs5 += c5[c].avgSlowdown();
  }
  EXPECT_LT(vs15, vs5 * 1.2);
}

}  // namespace
}  // namespace sps
