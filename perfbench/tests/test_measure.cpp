// Tests of the perfbench measurement: the schedule digest that checks every
// timed run, the percentiles, the cost-growth ratio and the span sketches.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <stdexcept>
#include <string>

#include "check/check_config.hpp"
#include "core/simulation.hpp"
#include "measure.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

// Short versions of the workloads keep the suite to seconds.
constexpr std::size_t kJobs = 1500;

sps::metrics::RunStats smallRun(const Workload& w, std::uint64_t seed,
                                const sps::check::CheckConfig& check = {}) {
  sps::core::SimulationOptions options;
  options.check = check;
  return sps::core::runSimulation(makeTrace(w, seed, kJobs), makeSpec(w),
                                  options);
}

const Workload& workload(const char* name) {
  const Workload* w = findWorkload(name);
  if (w == nullptr) throw std::invalid_argument(name);
  return *w;
}

TEST(ScheduleDigest, EqualsTheOracleArmedRun) {
  for (const Workload& w : workloads())
    EXPECT_EQ(scheduleDigest(smallRun(w, 7).jobs),
              scheduleDigest(
                  smallRun(w, 7, sps::check::CheckConfig::all()).jobs))
        << w.name;
}

TEST(ScheduleDigest, FiresOnAPerturbedSchedule) {
  const sps::metrics::RunStats stats = smallRun(workload("ss-deep"), 7);
  ASSERT_GT(stats.jobs.size(), 2u);
  const std::uint64_t base = scheduleDigest(stats.jobs);
  const std::size_t mid = stats.jobs.size() / 2;

  auto later = stats.jobs;
  later[mid].finish += 1;
  auto earlier = stats.jobs;
  earlier[mid].firstStart -= 1;
  auto suspended = stats.jobs;
  suspended[mid].suspendCount += 1;
  auto dropped = stats.jobs;
  dropped.pop_back();
  for (const auto* jobs : {&later, &earlier, &suspended, &dropped})
    EXPECT_NE(scheduleDigest(*jobs), base);
}

TEST(ScheduleDigest, TwoSeedsGiveDifferentDigests) {
  for (const Workload& w : workloads())
    EXPECT_NE(scheduleDigest(smallRun(w, 1).jobs),
              scheduleDigest(smallRun(w, 2).jobs))
        << w.name;
}

TEST(Percentile, NearestRankOnHandBuiltSamples) {
  std::vector<double> samples;
  for (int i = 1; i <= 1000; ++i) samples.push_back(i);
  std::shuffle(samples.begin(), samples.end(), std::mt19937(5));
  EXPECT_EQ(percentile(samples, 50.0), 500.0);
  EXPECT_EQ(percentile(samples, 99.0), 990.0);
  EXPECT_EQ(percentile(samples, 99.9), 999.0);
  EXPECT_EQ(percentile(samples, 100.0), 1000.0);
  EXPECT_EQ(percentile(samples, 0.01), 1.0);
  EXPECT_EQ(percentile({4.0, 1.0, 3.0}, 50.0), 3.0);
  EXPECT_EQ(percentile({42.0}, 99.9), 42.0);
  EXPECT_THROW((void)percentile({}, 50.0), std::invalid_argument);
}

TEST(CostGrowth, NsPerEventOfAQuarter) {
  EXPECT_DOUBLE_EQ((QuarterCost{1e-5, 100}.nsPerEvent()), 100.0);
  EXPECT_DOUBLE_EQ((QuarterCost{2.5, 1000000}.nsPerEvent()), 2500.0);
  EXPECT_THROW((void)QuarterCost{}.nsPerEvent(), std::invalid_argument);
  EXPECT_THROW((void)(QuarterCost{1e-5, 0}.nsPerEvent()),
               std::invalid_argument);
}

TEST(CostGrowth, HandBuiltQuarters) {
  // 100 ns per event in the first quarter, 250 ns in the last; and back.
  EXPECT_DOUBLE_EQ(
      costGrowth({{{1e-5, 100}, {3e-5, 100}, {0.0, 0}, {5e-5, 200}}}), 2.5);
  EXPECT_DOUBLE_EQ(
      costGrowth({{{5e-5, 200}, {3e-5, 100}, {0.0, 0}, {1e-5, 100}}}), 2.5);
  EXPECT_DOUBLE_EQ(
      costGrowth({{{2e-3, 1000}, {1e-3, 10}, {4e-3, 7}, {2e-3, 1000}}}),
      1.0);
  EXPECT_THROW((void)costGrowth({{{1e-5, 0}, {}, {}, {1e-5, 10}}}),
               std::invalid_argument);
  EXPECT_THROW((void)costGrowth({{{1e-5, 10}, {}, {}, {1e-5, 0}}}),
               std::invalid_argument);
}

TEST(SpanStats, CountTotalAndSketchedQuantiles) {
  SpanStats span;
  for (int i = 1; i <= 1000; ++i) span.add(i);
  EXPECT_EQ(span.count, 1000u);
  EXPECT_DOUBLE_EQ(span.totalNs, 500500.0);
  EXPECT_NEAR(span.quantileNs(0.50), 500.0, 5.0);
  EXPECT_NEAR(span.quantileNs(0.99), 990.0, 5.0);
  const SpanStats empty;
  EXPECT_EQ(empty.quantileNs(0.5), 0.0);

  EXPECT_DOUBLE_EQ(yieldRatio(1, 4), 0.25);
  EXPECT_EQ(yieldRatio(3, 0), 0.0);
}

TEST(RenderScript, InterleavesTheMixAndEndsWithDrain) {
  const Workload& w = workload("service-mix");
  const sps::workload::Trace trace = makeTrace(w, 3, 5000);
  const std::string script = renderScript(trace, w.mix);

  std::size_t submits = 0, queries = 0, cancels = 0, stats = 0;
  std::size_t pos = 0;
  std::string last;
  while (pos < script.size()) {
    const std::size_t eol = script.find('\n', pos);
    last = script.substr(pos, eol - pos);
    pos = eol + 1;
    submits += last.rfind("submit ", 0) == 0;
    queries += last.rfind("query ", 0) == 0;
    cancels += last.rfind("cancel ", 0) == 0;
    stats += last == "stats";
  }
  std::size_t wantQueries = 0, wantCancels = 0, wantStats = 0;
  for (std::size_t i = 0; i < trace.jobs.size(); ++i) {
    wantQueries += w.mix.query.hits(i);
    wantCancels += w.mix.cancel.hits(i);
    wantStats += w.mix.stats.hits(i);
  }
  EXPECT_EQ(submits, trace.jobs.size());
  EXPECT_EQ(queries, wantQueries);
  EXPECT_EQ(cancels, wantCancels);
  EXPECT_EQ(stats, wantStats);
  EXPECT_GT(wantQueries * wantCancels * wantStats, 0u);
  EXPECT_EQ(last, "drain");
}

}  // namespace
