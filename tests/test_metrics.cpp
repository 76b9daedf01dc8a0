// Unit tests: metrics — bounded slowdown (Eq. 1), estimate split, category
// aggregation, distributions, TSS limit calibration, report rendering.
#include <gtest/gtest.h>

#include <cmath>

#include "helpers.hpp"
#include "metrics/category_stats.hpp"
#include "metrics/collector.hpp"
#include "metrics/report.hpp"
#include "sched/easy.hpp"
#include "sim/simulator.hpp"

namespace sps::metrics {
namespace {

using test::J;
using test::makeTrace;

JobResult result(Time submit, Time runtime, std::uint32_t procs, Time finish,
                 Time estimate = 0) {
  JobResult r;
  r.submit = submit;
  r.runtime = runtime;
  r.estimate = estimate == 0 ? runtime : estimate;
  r.procs = procs;
  r.finish = finish;
  r.firstStart = finish - runtime;
  return r;
}

// --- Eq. 1 -------------------------------------------------------------------

TEST(BoundedSlowdown, NoWaitIsOne) {
  EXPECT_DOUBLE_EQ(boundedSlowdown(result(0, 100, 1, 100)), 1.0);
}

TEST(BoundedSlowdown, WaitScales) {
  // 100 s job, waited 300 s: (300 + 100)/100 = 4.
  EXPECT_DOUBLE_EQ(boundedSlowdown(result(0, 100, 1, 400)), 4.0);
}

TEST(BoundedSlowdown, TenSecondThresholdLimitsShortJobs) {
  // 1 s job waited 99 s: raw slowdown 100, bounded (99+1)/10 = 10.
  EXPECT_DOUBLE_EQ(boundedSlowdown(result(0, 1, 1, 100)), 10.0);
}

TEST(BoundedSlowdown, NeverBelowOne) {
  // 5 s job with no wait: (0+5)/10 = 0.5 -> clamped to 1.
  EXPECT_DOUBLE_EQ(boundedSlowdown(result(0, 5, 1, 5)), 1.0);
}

TEST(BoundedSlowdown, ExactlyTenSecondJob) {
  EXPECT_DOUBLE_EQ(boundedSlowdown(result(0, 10, 1, 20)), 2.0);
}

TEST(RawSlowdown, Ratio) {
  EXPECT_DOUBLE_EQ(rawSlowdown(result(0, 100, 1, 400)), 4.0);
}

TEST(JobResult, DerivedQuantities) {
  const JobResult r = result(50, 100, 4, 400);
  EXPECT_EQ(r.turnaround(), 350);
  EXPECT_EQ(r.waitTime(), 250);
}

// --- estimate split (Section V) ---------------------------------------------

TEST(EstimateSplit, BoundaryIsTwice) {
  EXPECT_TRUE(isWellEstimated(result(0, 100, 1, 100, 200)));   // exactly 2x
  EXPECT_FALSE(isWellEstimated(result(0, 100, 1, 100, 201)));  // just over
  EXPECT_TRUE(isWellEstimated(result(0, 100, 1, 100, 100)));   // exact
}

TEST(EstimateSplit, FilterPartitions) {
  std::vector<JobResult> jobs = {result(0, 100, 1, 100, 100),
                                 result(0, 100, 1, 100, 500)};
  EXPECT_EQ(overallAggregate(jobs, EstimateFilter::All).count(), 2u);
  EXPECT_EQ(overallAggregate(jobs, EstimateFilter::WellEstimated).count(), 1u);
  EXPECT_EQ(overallAggregate(jobs, EstimateFilter::BadlyEstimated).count(),
            1u);
}

// --- category aggregation ----------------------------------------------------

TEST(CategoryStats, PlacesJobsByActualRuntimeAndWidth) {
  std::vector<JobResult> jobs = {
      result(0, 300, 1, 300),     // VS Seq
      result(0, 300, 40, 600),    // VS VW
      result(0, 40000, 16, 80000)  // VL W
  };
  const auto stats = categorize16(jobs);
  EXPECT_EQ(stats[workload::category16(300, 1)].count(), 1u);
  EXPECT_EQ(stats[workload::category16(300, 40)].count(), 1u);
  EXPECT_EQ(stats[workload::category16(40000, 16)].count(), 1u);
  std::size_t total = 0;
  for (const auto& agg : stats) total += agg.count();
  EXPECT_EQ(total, 3u);
}

TEST(CategoryStats, AverageAndWorst) {
  std::vector<JobResult> jobs = {result(0, 100, 1, 100),
                                 result(0, 100, 1, 400),
                                 result(0, 100, 1, 700)};
  const auto agg = overallAggregate(jobs);
  EXPECT_DOUBLE_EQ(agg.avgSlowdown(), (1.0 + 4.0 + 7.0) / 3.0);
  EXPECT_DOUBLE_EQ(agg.worstSlowdown(), 7.0);
  EXPECT_DOUBLE_EQ(agg.avgTurnaround(), 400.0);
  EXPECT_DOUBLE_EQ(agg.worstTurnaround(), 700.0);
}

TEST(CategoryStats, PercentilesFromSamples) {
  std::vector<JobResult> jobs;
  for (int i = 1; i <= 100; ++i)
    jobs.push_back(result(0, 100, 1, 100 + 100 * i));  // slowdowns 2..101
  const auto agg = overallAggregate(jobs);
  EXPECT_NEAR(agg.slowdownPercentile(95), 96.05, 0.01);  // rank 94.05 interp
  EXPECT_DOUBLE_EQ(agg.slowdownPercentile(100), agg.worstSlowdown());
  EXPECT_GT(agg.turnaroundPercentile(95), agg.avgTurnaround());
}

TEST(CategoryStats, PercentileOfEmptyCellIsZero) {
  const CategoryAggregate agg;
  EXPECT_DOUBLE_EQ(agg.slowdownPercentile(95), 0.0);
  EXPECT_DOUBLE_EQ(agg.turnaroundPercentile(50), 0.0);
}

TEST(CategoryStats, EmptyCellReadsZero) {
  const CategoryAggregate agg;
  EXPECT_TRUE(agg.empty());
  EXPECT_DOUBLE_EQ(agg.avgSlowdown(), 0.0);
  EXPECT_DOUBLE_EQ(agg.worstTurnaround(), 0.0);
}

TEST(CategoryStats, FourWayAggregation) {
  std::vector<JobResult> jobs = {
      result(0, 100, 1, 100),      // SN
      result(0, 100, 9, 100),      // SW
      result(0, 7200, 2, 7200),    // LN
      result(0, 7200, 100, 7200),  // LW
      result(0, 100, 2, 200)};     // SN again
  const auto stats = categorize4(jobs);
  EXPECT_EQ(stats[0].count(), 2u);
  EXPECT_EQ(stats[1].count(), 1u);
  EXPECT_EQ(stats[2].count(), 1u);
  EXPECT_EQ(stats[3].count(), 1u);
}

TEST(Distribution, SumsToHundred) {
  const auto trace = makeTrace(430, {{0, 100, 1}, {0, 100, 10}, {0, 5000, 40},
                                     {0, 100, 2}});
  const auto d16 = distribution16(trace.jobs);
  double total = 0;
  for (double v : d16) total += v;
  EXPECT_NEAR(total, 100.0, 1e-9);
  const auto d4 = distribution4(trace.jobs);
  total = 0;
  for (double v : d4) total += v;
  EXPECT_NEAR(total, 100.0, 1e-9);
}

// --- TSS limits ---------------------------------------------------------------

TEST(TssLimits, OneAndAHalfTimesCategoryAverage) {
  std::vector<JobResult> jobs = {result(0, 100, 1, 100),
                                 result(0, 100, 1, 500)};  // slowdowns 1, 5
  const auto limits = tssLimits(jobs);
  const std::size_t cat = workload::category16(100, 1);
  EXPECT_DOUBLE_EQ(limits[cat], 1.5 * 3.0);
}

TEST(TssLimits, ClassifiesByEstimate) {
  // Runtime 100 (VS) but estimate 40000 (VL): the limit must land in the
  // estimate's category — the only signal a live scheduler has.
  std::vector<JobResult> jobs = {result(0, 100, 1, 300, 40000)};
  const auto limits = tssLimits(jobs);
  EXPECT_TRUE(std::isinf(limits[workload::category16(100, 1)]));
  EXPECT_FALSE(std::isinf(limits[workload::category16(40000, 1)]));
}

TEST(TssLimits, EmptyCategoriesUnlimited) {
  const auto limits = tssLimits({});
  for (double v : limits) EXPECT_TRUE(std::isinf(v));
}

TEST(TssLimits, CustomMultiplier) {
  std::vector<JobResult> jobs = {result(0, 100, 1, 300)};  // slowdown 3
  const auto limits = tssLimits(jobs, 2.0);
  EXPECT_DOUBLE_EQ(limits[workload::category16(100, 1)], 6.0);
}

// --- collector ----------------------------------------------------------------

TEST(Collector, HarvestsRunResults) {
  const auto trace = makeTrace(8, {{0, 100, 4}, {0, 200, 4}});
  sched::EasyBackfill policy;
  sim::Simulator s(trace, policy);
  s.run();
  const RunStats stats = collect(s, "EASY");
  EXPECT_EQ(stats.policyName, "EASY");
  EXPECT_EQ(stats.traceName, "test");
  ASSERT_EQ(stats.jobs.size(), 2u);
  EXPECT_EQ(stats.jobs[0].finish, 100);
  EXPECT_EQ(stats.jobs[1].finish, 200);
  EXPECT_EQ(stats.span, 200);
  // Work = 100*4 + 200*4 = 1200 proc-s over 8 procs x 200 s.
  EXPECT_NEAR(stats.utilization, 1200.0 / 1600.0, 1e-12);
  EXPECT_NEAR(stats.usefulUtilization, 1200.0 / 1600.0, 1e-12);
  EXPECT_EQ(stats.suspensions, 0u);
  EXPECT_GT(stats.eventsProcessed, 0u);
  EXPECT_DOUBLE_EQ(stats.meanBoundedSlowdown(), 1.0);
  EXPECT_DOUBLE_EQ(stats.meanTurnaround(), 150.0);
}

// --- report rendering ----------------------------------------------------------

TEST(Report, MetricNamesAndValues) {
  CategoryAggregate agg;
  agg.add(result(0, 100, 1, 400));
  EXPECT_DOUBLE_EQ(metricValue(agg, Metric::AvgSlowdown), 4.0);
  EXPECT_DOUBLE_EQ(metricValue(agg, Metric::WorstSlowdown), 4.0);
  EXPECT_DOUBLE_EQ(metricValue(agg, Metric::AvgTurnaround), 400.0);
  EXPECT_DOUBLE_EQ(metricValue(agg, Metric::WorstTurnaround), 400.0);
  EXPECT_DOUBLE_EQ(metricValue(agg, Metric::P95Slowdown), 4.0);
  EXPECT_DOUBLE_EQ(metricValue(agg, Metric::P95Turnaround), 400.0);
  EXPECT_STREQ(metricName(Metric::AvgSlowdown), "avg slowdown");
  EXPECT_STREQ(metricName(Metric::P95Slowdown), "p95 slowdown");
}

TEST(Report, CategoryGridShape) {
  std::vector<JobResult> jobs = {result(0, 100, 1, 400)};
  const Table t = categoryGrid16(categorize16(jobs), Metric::AvgSlowdown);
  EXPECT_EQ(t.columnCount(), 5u);  // label + 4 width classes
  EXPECT_EQ(t.rowCount(), 4u);
  const std::string ascii = t.toAscii();
  EXPECT_NE(ascii.find("4.00"), std::string::npos);
  EXPECT_NE(ascii.find("-"), std::string::npos);  // empty cells dashed
}

TEST(Report, SchemeComparisonColumnsPerRun) {
  std::vector<JobResult> a = {result(0, 100, 1, 400)};
  std::vector<JobResult> b = {result(0, 100, 1, 800)};
  const Table t = schemeComparison(
      {{"one", categorize16(a)}, {"two", categorize16(b)}},
      workload::RunClass::VeryShort, Metric::AvgSlowdown);
  EXPECT_EQ(t.columnCount(), 3u);
  const std::string ascii = t.toAscii();
  EXPECT_NE(ascii.find("4.00"), std::string::npos);
  EXPECT_NE(ascii.find("8.00"), std::string::npos);
}

TEST(Report, SummaryLineMentionsKeyNumbers) {
  const auto trace = makeTrace(8, {{0, 100, 4}});
  sched::EasyBackfill policy;
  sim::Simulator s(trace, policy);
  s.run();
  const std::string line = summaryLine(collect(s, "EASY"));
  EXPECT_NE(line.find("EASY"), std::string::npos);
  EXPECT_NE(line.find("utilization"), std::string::npos);
}

TEST(Report, SummaryLineOfARunWithoutJobs) {
  RunStats stats;
  stats.policyName = "SS";
  stats.traceName = "serve";
  EXPECT_EQ(summaryLine(stats), "SS on serve: 0 jobs");
}

}  // namespace
}  // namespace sps::metrics
