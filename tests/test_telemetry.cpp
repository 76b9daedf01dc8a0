// Tests for the simulation-time telemetry subsystem: the TimelineRecorder
// sim-clock series, the QuantileSketch streaming estimator, and the
// OpenMetrics exposition + validator. (Live Runner progress is covered in
// test_runner.cpp next to the other concurrency suites.)
//
// Counter tracks are written after the run's own trace events, only when the
// run has a sink.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "core/simulation.hpp"
#include "helpers.hpp"
#include "metrics/json.hpp"
#include "metrics/openmetrics.hpp"
#include "obs/counters.hpp"
#include "obs/timeline.hpp"
#include "obs/trace_sink.hpp"
#include "util/quantile_sketch.hpp"
#include "util/stats.hpp"
#include "workload/synthetic.hpp"

namespace sps {
namespace {

using test::J;
using util::QuantileSketch;

// --- QuantileSketch ---------------------------------------------------------

/// Exact empirical quantile by sorting (the reference the sketch must track).
double exactQuantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double relativeError(double estimate, double exact) {
  return std::abs(estimate - exact) / std::max(std::abs(exact), 1e-12);
}

/// Heavy-tailed deterministic stream, shaped like the slowdown/wait
/// distributions the sketch is built for.
std::vector<double> lognormalStream(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::lognormal_distribution<double> dist(4.0, 1.5);
  std::vector<double> values;
  values.reserve(n);
  for (std::size_t i = 0; i < n; ++i) values.push_back(dist(rng));
  return values;
}

TEST(QuantileSketch, ExactOnSmallStreams) {
  // Below the compaction threshold nothing is merged, so quantiles come
  // straight from the raw observations.
  QuantileSketch sketch;
  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) {
    values.push_back(i);
    sketch.add(i);
  }
  EXPECT_EQ(sketch.count(), 100u);
  EXPECT_DOUBLE_EQ(sketch.min(), 1.0);
  EXPECT_DOUBLE_EQ(sketch.max(), 100.0);
  EXPECT_DOUBLE_EQ(sketch.sum(), 5050.0);
  EXPECT_DOUBLE_EQ(sketch.mean(), 50.5);
  EXPECT_DOUBLE_EQ(sketch.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(sketch.quantile(1.0), 100.0);
  EXPECT_NEAR(sketch.quantile(0.5), exactQuantile(values, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(sketch.percentile(95), sketch.quantile(0.95));
}

TEST(QuantileSketch, TracksExactWithinOnePercent) {
  const std::vector<double> values = lognormalStream(50000, 1234);
  QuantileSketch sketch;
  Samples exact;
  for (const double v : values) {
    sketch.add(v);
    exact.add(v);
  }
  EXPECT_LE(sketch.centroidCount(),
            QuantileSketch::kDefaultCompression + 16);
  for (const double p : {50.0, 90.0, 95.0, 99.0}) {
    const double reference = exact.percentile(p);
    EXPECT_LT(relativeError(sketch.percentile(p), reference), 0.01)
        << "p" << p << ": sketch " << sketch.percentile(p) << " vs exact "
        << reference;
  }
}

TEST(QuantileSketch, MergeApproximatesUnion) {
  const std::vector<double> a = lognormalStream(20000, 7);
  const std::vector<double> b = lognormalStream(30000, 8);
  QuantileSketch sa, sb;
  for (const double v : a) sa.add(v);
  for (const double v : b) sb.add(v);
  sa.merge(sb);

  std::vector<double> all = a;
  all.insert(all.end(), b.begin(), b.end());
  EXPECT_EQ(sa.count(), all.size());
  EXPECT_DOUBLE_EQ(sa.totalWeight(), static_cast<double>(all.size()));
  for (const double q : {0.5, 0.95, 0.99}) {
    EXPECT_LT(relativeError(sa.quantile(q), exactQuantile(all, q)), 0.01)
        << "q=" << q;
  }
}

TEST(QuantileSketch, DeterministicAcrossIdenticalStreams) {
  const std::vector<double> values = lognormalStream(10000, 99);
  QuantileSketch first, second;
  for (const double v : values) {
    first.add(v);
    second.add(v);
  }
  for (const double q : {0.01, 0.25, 0.5, 0.9, 0.99}) {
    EXPECT_EQ(first.quantile(q), second.quantile(q)) << "q=" << q;
  }
  EXPECT_EQ(first.centroidCount(), second.centroidCount());
}

TEST(QuantileSketch, WeightedAddMatchesRepeatedAdd) {
  QuantileSketch weighted, repeated;
  for (int i = 1; i <= 50; ++i) {
    weighted.add(i, 4.0);
    for (int k = 0; k < 4; ++k) repeated.add(i);
  }
  EXPECT_DOUBLE_EQ(weighted.totalWeight(), repeated.totalWeight());
  for (const double q : {0.1, 0.5, 0.9}) {
    EXPECT_NEAR(weighted.quantile(q), repeated.quantile(q), 1.0) << "q=" << q;
  }
}

// --- TimelineRecorder -------------------------------------------------------

core::SimulationOptions timelineOptions(Time stride,
                                        std::size_t maxSamples = 4096) {
  core::SimulationOptions options;
  options.timeline.enabled = true;
  options.timeline.stride = stride;
  options.timeline.maxSamples = maxSamples;
  return options;
}

/// 4-proc machine: two 2-wide jobs run [0,100), a 4-wide job arrives at 50,
/// waits (backlog 4x60=240), runs [100,160). Every machine state on a
/// stride-25 timeline is known in closed form.
metrics::RunStats runKnownTimeline(Time stride, std::size_t maxSamples) {
  const workload::Trace trace = test::makeTrace(
      4, {J{0, 100, 2}, J{0, 100, 2}, J{50, 60, 4}});
  core::PolicySpec spec;
  spec.kind = core::PolicyKind::Fcfs;
  return core::runSimulation(trace, spec,
                             timelineOptions(stride, maxSamples));
}

TEST(Timeline, SamplesKnownScheduleAtStride) {
  const metrics::RunStats stats = runKnownTimeline(25, 4096);
  const obs::TimelineData& t = stats.timeline;
  ASSERT_EQ(t.sampleCount(), 6u);  // samples at 25,50,...,150 (span 160)
  EXPECT_EQ(t.stride, 25);
  EXPECT_EQ(t.timeAt(0), 25);
  EXPECT_EQ(t.timeAt(5), 150);

  // Sample k reflects the state over the interval ending at its timestamp,
  // so the arrival at t=50 is not yet visible in the t=50 sample.
  const std::vector<std::uint32_t> wantQueue = {0, 0, 1, 1, 0, 0};
  const std::vector<std::uint32_t> wantRunning = {2, 2, 2, 2, 1, 1};
  const std::vector<double> wantBacklog = {0, 0, 240, 240, 0, 0};
  EXPECT_EQ(t.queueDepth, wantQueue);
  EXPECT_EQ(t.runningJobs, wantRunning);
  EXPECT_EQ(t.backlogProcSeconds, wantBacklog);
  for (std::size_t k = 0; k < t.sampleCount(); ++k) {
    EXPECT_EQ(t.suspendedJobs[k], 0u);
    EXPECT_EQ(t.freeProcs[k], 0u);
    EXPECT_DOUBLE_EQ(t.utilization[k], 1.0);
  }
  EXPECT_EQ(stats.counters.value(obs::Counter::TimelineSamples), 6u);
  EXPECT_EQ(stats.counters.value(obs::Counter::TimelineDecimations), 0u);
}

TEST(Timeline, DecimationDoublesStrideUnderCap) {
  // 1 job, span 1000, stride 10, cap 4: the recorder must repeatedly halve
  // (keeping the odd-index points so timeAt stays exact) until the series
  // fits. Walk: stride 10 -> 20 -> 40 -> 80 -> 160 -> 320.
  const workload::Trace trace = test::makeTrace(1, {J{0, 1000, 1}});
  core::PolicySpec spec;
  spec.kind = core::PolicyKind::Fcfs;
  const metrics::RunStats stats =
      core::runSimulation(trace, spec, timelineOptions(10, 4));
  const obs::TimelineData& t = stats.timeline;
  EXPECT_EQ(t.stride, 320);
  ASSERT_EQ(t.sampleCount(), 3u);  // 320, 640, 960
  EXPECT_EQ(t.timeAt(2), 960);
  for (std::size_t k = 0; k < t.sampleCount(); ++k) {
    EXPECT_EQ(t.runningJobs[k], 1u);
    EXPECT_DOUBLE_EQ(t.utilization[k], 1.0);
  }
  EXPECT_EQ(stats.counters.value(obs::Counter::TimelineDecimations), 5u);
  EXPECT_EQ(stats.counters.value(obs::Counter::TimelineSamples), 13u);
}

TEST(Timeline, DisabledRecordsNothing) {
  const workload::Trace trace = test::makeTrace(4, {J{0, 100, 2}});
  core::PolicySpec spec;
  spec.kind = core::PolicyKind::Fcfs;
  const metrics::RunStats stats =
      core::runSimulation(trace, spec, core::SimulationOptions{});
  EXPECT_TRUE(stats.timeline.empty());
  EXPECT_EQ(stats.counters.value(obs::Counter::TimelineSamples), 0u);

  // The JSON export must omit the block entirely, not write an empty one.
  const std::string json = metrics::runStatsJson(stats);
  EXPECT_EQ(json.find("timeline"), std::string::npos) << json;
}

TEST(Timeline, UtilizationIntegralMatchesRunStats) {
  // Golden consistency check on a tier-1 synthetic workload: the mean of
  // the sampled instantaneous utilization is a Riemann approximation of
  // RunStats::utilization (busy proc-seconds / (procs x span)).
  const workload::Trace trace =
      workload::generateTrace(workload::ctcConfig(600, 7));
  core::PolicySpec spec;
  spec.kind = core::PolicyKind::Easy;

  // Pass 1 learns the span so pass 2 can pick a stride that avoids
  // decimation while staying fine-grained (~2000 points).
  const metrics::RunStats probe =
      core::runSimulation(trace, spec, core::SimulationOptions{});
  const Time stride = std::max<Time>(1, probe.span / 2000);
  const metrics::RunStats stats =
      core::runSimulation(trace, spec, timelineOptions(stride));
  const obs::TimelineData& t = stats.timeline;
  ASSERT_GT(t.sampleCount(), 1000u);
  EXPECT_EQ(stats.counters.value(obs::Counter::TimelineDecimations), 0u);

  double sum = 0.0;
  for (const double u : t.utilization) {
    ASSERT_GE(u, 0.0);
    ASSERT_LE(u, 1.0);
    sum += u;
  }
  const double integralMean = sum / static_cast<double>(t.sampleCount());
  EXPECT_LT(relativeError(integralMean, stats.utilization), 0.03)
      << "integral " << integralMean << " vs collected "
      << stats.utilization;
}

TEST(Timeline, EmitsCounterTracksThroughChromeSink) {
  std::ostringstream os;
  std::uint64_t emitted = 0;
  std::size_t samples = 0;
  {
    obs::ChromeTraceSink sink(os);
    const workload::Trace trace = test::makeTrace(
        4, {J{0, 100, 2}, J{0, 100, 2}, J{50, 60, 4}});
    core::PolicySpec spec;
    spec.kind = core::PolicyKind::Fcfs;
    core::SimulationOptions options = timelineOptions(25);
    options.traceSink = &sink;
    const metrics::RunStats stats =
        core::runSimulation(trace, spec, options);
    samples = stats.timeline.sampleCount();
    emitted = sink.eventCount();
  }  // destructor closes the JSON array

  ASSERT_GT(samples, 0u);
  // Four counter tracks per sample; the run's own events are not counters,
  // so the counter count is exact.
  const std::string trace = os.str();
  std::size_t counters = 0;
  for (std::size_t at = trace.find("\"ph\":\"C\""); at != std::string::npos;
       at = trace.find("\"ph\":\"C\"", at + 1))
    ++counters;
  EXPECT_EQ(counters, samples * 4);
  EXPECT_GT(emitted, counters);

  std::string error;
  EXPECT_TRUE(metrics::validateJson(trace, &error)) << error;
  EXPECT_NE(trace.find("\"C\""), std::string::npos) << trace;
  EXPECT_NE(trace.find("utilizationPct"), std::string::npos);
  EXPECT_NE(trace.find("backlogProcSeconds"), std::string::npos);
  EXPECT_NE(trace.find("timeline"), std::string::npos);
}

TEST(Timeline, JsonBlockValidatesAndRoundsTrip) {
  const metrics::RunStats stats = runKnownTimeline(25, 4096);
  const std::string json = metrics::runStatsJson(stats);
  std::string error;
  EXPECT_TRUE(metrics::validateJson(json, &error)) << error;
  EXPECT_NE(json.find("\"timeline\""), std::string::npos);
  EXPECT_NE(json.find("\"stride\": 25"), std::string::npos) << json;
  EXPECT_NE(json.find("\"samples\": 6"), std::string::npos) << json;
}

// --- OpenMetrics ------------------------------------------------------------

TEST(OpenMetrics, EmittedBatchValidatesAndCarriesLabels) {
  const workload::Trace trace = test::makeTrace(
      4, {J{0, 100, 2}, J{0, 100, 2}, J{50, 60, 4}});
  core::Runner runner({.threads = 1});
  const auto shared = core::borrowTrace(trace);
  std::vector<core::RunRequest> batch(2);
  batch[0].trace = shared;
  batch[0].spec.kind = core::PolicyKind::Fcfs;
  batch[0].seed = 11;
  batch[1].trace = shared;
  batch[1].spec.kind = core::PolicyKind::Easy;
  batch[1].seed = 12;
  const std::vector<core::RunResult> results = runner.runAll(std::move(batch));

  std::ostringstream os;
  core::writeRunResultsOpenMetrics(os, results);
  const std::string text = os.str();

  std::string error;
  EXPECT_TRUE(metrics::validateOpenMetrics(text, &error)) << error << "\n"
                                                          << text;
  EXPECT_NE(text.find("# TYPE sps_run_utilization gauge"), std::string::npos);
  EXPECT_NE(text.find("sps_sim_events_total"), std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos);
  EXPECT_NE(text.find("run=\"1\""), std::string::npos);
  EXPECT_NE(text.find("seed=\"12\""), std::string::npos);
  EXPECT_NE(text.find("sps_run_wall_seconds"), std::string::npos);
  // Exactly one document terminator, at the very end.
  EXPECT_TRUE(text.ends_with("# EOF\n"));
  EXPECT_EQ(text.find("# EOF"), text.size() - 6);
}

TEST(OpenMetrics, SingleRunConvenienceValidates) {
  const metrics::RunStats stats = runKnownTimeline(25, 4096);
  const std::string text = metrics::openMetrics(stats);
  std::string error;
  EXPECT_TRUE(metrics::validateOpenMetrics(text, &error)) << error << "\n"
                                                          << text;
  // The timeline run counted samples; they surface as a counter family.
  EXPECT_NE(text.find("sps_obs_timeline_samples_total"), std::string::npos)
      << text;
}

TEST(OpenMetrics, EscapesHostileLabelValues) {
  metrics::RunStats stats;
  stats.policyName = "po\"li\\cy\nname";
  stats.traceName = "tr\\ace";
  const std::string text = metrics::openMetrics(stats);
  std::string error;
  EXPECT_TRUE(metrics::validateOpenMetrics(text, &error)) << error << "\n"
                                                          << text;
  EXPECT_NE(text.find("po\\\"li\\\\cy\\nname"), std::string::npos) << text;
}

TEST(OpenMetrics, ValidatorAcceptsMinimalDocument) {
  const std::string doc =
      "# TYPE a gauge\n"
      "a{x=\"1\"} 2\n"
      "a 3.5\n"
      "# TYPE b counter\n"
      "# HELP b a counter\n"
      "b_total{y=\"z\"} 4\n"
      "# TYPE c summary\n"
      "c{quantile=\"0.5\"} 1\n"
      "c_count 2\n"
      "c_sum 3\n"
      "# EOF\n";
  std::string error;
  EXPECT_TRUE(metrics::validateOpenMetrics(doc, &error)) << error;
}

TEST(OpenMetrics, ValidatorRejectsMalformedDocuments) {
  const struct {
    const char* doc;
    const char* why;
  } cases[] = {
      {"# TYPE a gauge\na 1\n", "missing # EOF"},
      {"# TYPE a gauge\na 1\n# EOF\nx 1\n", "content after EOF"},
      {"# TYPE a gauge\n\na 1\n# EOF\n", "empty line"},
      {"a 1\n# EOF\n", "sample before any TYPE"},
      {"# TYPE a counter\na 1\n# EOF\n", "counter sample missing _total"},
      {"# TYPE a gauge\na_total 1\n# EOF\n", "gauge sample with suffix"},
      {"# TYPE a gauge\na 1\n# TYPE a gauge\na 2\n# EOF\n",
       "family declared twice"},
      {"# TYPE a gauge\nb 1\n# EOF\n", "sample outside its family"},
      {"# TYPE a gauge\na{x=1} 1\n# EOF\n", "unquoted label value"},
      {"# TYPE a gauge\na{x=\"1\",x=\"2\"} 1\n# EOF\n", "duplicate label"},
      {"# TYPE a gauge\na{x=\"\\q\"} 1\n# EOF\n", "bad escape"},
      {"# TYPE a gauge\na one\n# EOF\n", "non-numeric value"},
      {"# TYPE a gauge\na 1 2 3\n# EOF\n", "trailing tokens"},
      {"# TYPE a summary\na 1\n# EOF\n", "summary base without quantile"},
      {"# TYPE a summary\na{quantile=\"1.5\"} 1\n# EOF\n",
       "quantile out of range"},
      {"# TYPE a histogram\na_bucket 1\n# EOF\n", "unsupported type"},
      {"# TYPE 9a gauge\n# EOF\n", "bad family name"},
      {"#comment\n# EOF\n", "malformed comment"},
      {"# HELP b text\n# EOF\n", "HELP outside family block"},
  };
  for (const auto& c : cases) {
    std::string error;
    EXPECT_FALSE(metrics::validateOpenMetrics(c.doc, &error)) << c.why;
    EXPECT_FALSE(error.empty()) << c.why;
    EXPECT_NE(error.find("line"), std::string::npos) << c.why << ": " << error;
  }
}

}  // namespace
}  // namespace sps
