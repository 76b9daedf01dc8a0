// Unit + integration tests: core::Runner — determinism across thread counts,
// result ordering, hooks, error propagation, and the convenience wrappers
// (compareSchemes / loadSweep / replicate) that ride on it.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/progress.hpp"
#include "core/replicate.hpp"
#include "core/runner.hpp"
#include "helpers.hpp"
#include "metrics/json.hpp"
#include "obs/trace_sink.hpp"
#include "workload/synthetic.hpp"

namespace sps::core {
namespace {

std::vector<RunRequest> smallBatch(
    const std::shared_ptr<const workload::Trace>& trace) {
  std::vector<RunRequest> batch;
  std::size_t i = 0;
  for (const PolicySpec& spec : ssSchemeSet()) {
    RunRequest request;
    request.trace = trace;
    request.spec = spec;
    request.seed = i++;
    batch.push_back(std::move(request));
  }
  return batch;
}

/// The per-job-stats fingerprint of a batch: JSON is shortest-round-trip, so
/// byte-equal strings == bit-for-bit equal stats. Excludes wallSeconds.
std::vector<std::string> statsFingerprints(
    const std::vector<RunResult>& results) {
  std::vector<std::string> out;
  out.reserve(results.size());
  for (const RunResult& r : results)
    out.push_back(metrics::runStatsJson(r.stats));
  return out;
}

TEST(Runner, DeterministicAcrossThreadCounts) {
  const auto trace =
      shareTrace(workload::generateTrace(workload::sdscConfig(400, 17)));
  Runner one({.threads = 1});
  const auto baseline = statsFingerprints(one.runAll(smallBatch(trace)));
  ASSERT_EQ(baseline.size(), 5u);
  for (std::size_t threads : {2u, 8u}) {
    Runner runner({.threads = threads});
    const auto fingerprints =
        statsFingerprints(runner.runAll(smallBatch(trace)));
    ASSERT_EQ(fingerprints.size(), baseline.size());
    for (std::size_t i = 0; i < baseline.size(); ++i)
      EXPECT_EQ(fingerprints[i], baseline[i])
          << "run " << i << " diverged at " << threads << " threads";
  }
}

TEST(Runner, ResultsOrderedByRequestIndex) {
  const auto trace =
      shareTrace(workload::generateTrace(workload::sdscConfig(200, 3)));
  Runner runner({.threads = 4});
  const auto results = runner.runAll(smallBatch(trace));
  ASSERT_EQ(results.size(), 5u);
  const auto specs = ssSchemeSet();
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].index, i);
    EXPECT_EQ(results[i].seed, i);  // request echo preserved
    EXPECT_EQ(results[i].policyName, policyLabel(specs[i]));
    EXPECT_EQ(results[i].label, policyLabel(specs[i]));  // default label
    EXPECT_GE(results[i].wallSeconds, 0.0);
  }
}

TEST(Runner, EmptyBatch) {
  Runner runner({.threads = 4});
  EXPECT_TRUE(runner.runAll({}).empty());
}

TEST(Runner, RunOneEchoesRequestFields) {
  const auto trace = shareTrace(test::makeTrace(8, {{0, 100, 4}}));
  Runner runner({.threads = 1});
  RunRequest request;
  request.trace = trace;
  request.spec.kind = PolicyKind::Easy;
  request.seed = 99;
  request.label = "tagged";
  const RunResult result = runner.runOne(request);
  EXPECT_EQ(result.seed, 99u);
  EXPECT_EQ(result.label, "tagged");
  EXPECT_EQ(result.stats.jobs.size(), 1u);
}

TEST(Runner, MissingTraceThrowsFromAnyThreadCount) {
  for (std::size_t threads : {1u, 4u}) {
    Runner runner({.threads = threads});
    std::vector<RunRequest> batch(2);
    batch[0].trace =
        shareTrace(test::makeTrace(8, {{0, 50, 2}}));
    batch[0].spec.kind = PolicyKind::Easy;
    // batch[1].trace left null — the whole batch must surface the error.
    EXPECT_THROW((void)runner.runAll(std::move(batch)), InvariantError)
        << threads << " threads";
  }
}

TEST(Runner, HookSeesEveryRunSerialized) {
  const auto trace =
      shareTrace(workload::generateTrace(workload::sdscConfig(150, 5)));
  Runner runner({.threads = 4});
  // Plain (non-atomic) state: the hook contract says invocations are
  // serialized, so this is race-free — and TSan verifies that claim.
  std::vector<std::size_t> seen;
  runner.onRunComplete(
      [&seen](const RunResult& r) { seen.push_back(r.index); });
  const auto results = runner.runAll(smallBatch(trace));
  ASSERT_EQ(seen.size(), results.size());
  EXPECT_EQ(std::set<std::size_t>(seen.begin(), seen.end()).size(),
            results.size());  // every index exactly once, any order
}

TEST(Runner, WrappersMatchExplicitBatches) {
  const auto trace = workload::generateTrace(workload::sdscConfig(200, 7));
  const auto specs = worstCaseSchemeSet();

  Runner runner({.threads = 2});
  const auto viaWrapper = compareSchemes(runner, trace, specs);
  const auto shared = borrowTrace(trace);
  std::vector<RunRequest> batch;
  for (const PolicySpec& spec : specs) {
    RunRequest request;
    request.trace = shared;
    request.spec = spec;
    batch.push_back(std::move(request));
  }
  Runner direct({.threads = 2});
  const auto viaRunner = direct.runAll(std::move(batch));
  ASSERT_EQ(viaWrapper.size(), viaRunner.size());
  for (std::size_t i = 0; i < viaWrapper.size(); ++i)
    EXPECT_EQ(metrics::runStatsJson(viaWrapper[i]),
              metrics::runStatsJson(viaRunner[i].stats));
}

// Integration: regenerate one small figure sweep (the Fig. 13/14-style load
// sweep) through the Runner at several thread counts and require identical
// results — the parallel engine reproduces the paper pipeline exactly.
TEST(Runner, LoadSweepIdenticalAtAllThreadCounts) {
  const auto trace = workload::generateTrace(workload::sdscConfig(250, 21));
  const std::vector<double> factors = {1.0, 1.2};

  auto sweep = [&](std::size_t threads) {
    Runner runner({.threads = threads});
    return loadSweep(runner, trace, worstCaseSchemeSet(), factors);
  };
  const auto base = sweep(1);
  ASSERT_EQ(base.size(), factors.size());
  for (std::size_t threads : {2u, 8u}) {
    const auto points = sweep(threads);
    ASSERT_EQ(points.size(), base.size());
    for (std::size_t f = 0; f < points.size(); ++f) {
      EXPECT_DOUBLE_EQ(points[f].loadFactor, base[f].loadFactor);
      ASSERT_EQ(points[f].runs.size(), base[f].runs.size());
      for (std::size_t s = 0; s < points[f].runs.size(); ++s)
        EXPECT_EQ(metrics::runStatsJson(points[f].runs[s]),
                  metrics::runStatsJson(base[f].runs[s]));
    }
  }
}

TEST(Runner, ReplicateMatchesSequentialAggregates) {
  auto makeTrace = [](std::uint64_t seed) {
    return workload::generateTrace(workload::sdscConfig(150, seed));
  };
  PolicySpec ns;
  ns.kind = PolicyKind::Easy;
  ns.label = "NS";
  PolicySpec tss;
  tss.kind = PolicyKind::SelectiveSuspension;
  tss.ss.tssLimits.emplace();  // engaged: recalibrated per seed
  tss.label = "TSS";

  Runner sequential({.threads = 1});
  Runner parallel({.threads = 4});
  const auto a = replicate(sequential, makeTrace, {1, 2, 3}, {ns, tss});
  const auto b = replicate(parallel, makeTrace, {1, 2, 3}, {ns, tss});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t p = 0; p < a.size(); ++p) {
    EXPECT_EQ(a[p].policyName, b[p].policyName);
    EXPECT_EQ(a[p].meanSlowdown.mean(), b[p].meanSlowdown.mean());
    EXPECT_EQ(a[p].meanSlowdown.stddev(), b[p].meanSlowdown.stddev());
    EXPECT_EQ(a[p].meanTurnaround.mean(), b[p].meanTurnaround.mean());
    EXPECT_EQ(a[p].suspensionsPerJob.mean(), b[p].suspensionsPerJob.mean());
  }
}

TEST(Runner, BootstrapTssLimitsMatchesWrapper) {
  const auto trace = workload::generateTrace(workload::sdscConfig(300, 5));
  Runner runner({.threads = 2});
  const auto viaRunner = bootstrapTssLimits(runner, trace);
  const auto viaWrapper = bootstrapTssLimits(trace);
  for (std::size_t c = 0; c < viaRunner.size(); ++c)
    EXPECT_EQ(viaRunner[c], viaWrapper[c]);
}

TEST(Runner, JsonBatchExportHasSchemaAndAllRuns) {
  const auto trace = shareTrace(test::makeTrace(8, {{0, 100, 4}, {5, 60, 2}}));
  Runner runner({.threads = 2});
  const auto results = runner.runAll(smallBatch(trace));
  const std::string json = runResultsJson(results);
  EXPECT_NE(json.find("\"schemaVersion\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"runCount\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"policy\": \"NS\""), std::string::npos);
  EXPECT_NE(json.find("\"wallSeconds\""), std::string::npos);
  EXPECT_NE(json.find("\"jobs\""), std::string::npos);
}

TEST(Runner, SharedTraceSinkAcrossWorkersIsThreadCountInvariant) {
  // One sink shared by every worker: emit counts must not depend on the
  // thread count (and the TSan lane proves the sharing is race-free).
  const auto trace =
      shareTrace(workload::generateTrace(workload::sdscConfig(200, 13)));
  auto batchWith = [&trace](obs::TraceSink* sink) {
    auto batch = smallBatch(trace);
    for (RunRequest& request : batch) request.options.traceSink = sink;
    return batch;
  };
  obs::CountingSink sequential;
  Runner one({.threads = 1});
  (void)one.runAll(batchWith(&sequential));
  obs::CountingSink concurrent;
  Runner pool({.threads = 8});
  (void)pool.runAll(batchWith(&concurrent));
  EXPECT_GT(sequential.count(), 0u);
  EXPECT_EQ(concurrent.count(), sequential.count());
}

TEST(Runner, ThrowingHookIsContainedAndCounted) {
  const auto trace =
      shareTrace(workload::generateTrace(workload::sdscConfig(120, 3)));
  for (std::size_t threads : {1u, 4u}) {
    Runner runner({.threads = threads});
    runner.onRunComplete(
        [](const RunResult&) { throw std::runtime_error("hook bug"); });
    const auto results = runner.runAll(smallBatch(trace));
    // The batch itself must succeed: every result present and populated.
    ASSERT_EQ(results.size(), 5u) << threads << " threads";
    for (const RunResult& r : results)
      EXPECT_FALSE(r.stats.jobs.empty()) << threads << " threads";
    EXPECT_EQ(runner.engineCounters().value(obs::Counter::RunnerHookExceptions),
              results.size())
        << threads << " threads";
  }
}

TEST(Runner, ProgressFinalSnapshotIsThreadCountInvariant) {
  const auto trace =
      shareTrace(workload::generateTrace(workload::sdscConfig(150, 21)));
  std::uint64_t wantEvents = 0;
  for (std::size_t threads : {1u, 2u, 8u}) {
    ProgressBoard board;
    Runner runner({.threads = threads});
    runner.attachProgress(&board);
    const auto results = runner.runAll(smallBatch(trace));
    runner.attachProgress(nullptr);

    std::uint64_t events = 0;
    for (const RunResult& r : results) events += r.stats.eventsProcessed;
    if (wantEvents == 0) wantEvents = events;

    const ProgressSnapshot snap = board.snapshot();
    EXPECT_EQ(snap.runsTotal, results.size()) << threads << " threads";
    EXPECT_EQ(snap.runsDone, results.size()) << threads << " threads";
    EXPECT_EQ(snap.runsActive, 0u) << threads << " threads";
    EXPECT_TRUE(snap.activeSimFractions.empty()) << threads << " threads";
    EXPECT_DOUBLE_EQ(snap.fractionDone, 1.0) << threads << " threads";
    // Final event counts are delta-corrected on finish, so the board total
    // equals the exact per-run sum — at every thread count.
    EXPECT_EQ(snap.events, wantEvents) << threads << " threads";
  }
}

TEST(Runner, ProgressBoardAccumulatesAcrossBatches) {
  const auto trace = shareTrace(test::makeTrace(8, {{0, 50, 2}, {10, 20, 4}}));
  ProgressBoard board;
  Runner runner({.threads = 2});
  runner.attachProgress(&board);
  RunRequest request;
  request.trace = trace;
  request.spec.kind = PolicyKind::Fcfs;
  (void)runner.runOne(request);
  (void)runner.runAll({request, request});
  const ProgressSnapshot snap = board.snapshot();
  EXPECT_EQ(snap.runsTotal, 3u);
  EXPECT_EQ(snap.runsDone, 3u);
}

TEST(Runner, ProgressTicketReleasesSlotOnAbandon) {
  // The exception path: a ticket destroyed without finishRun must free its
  // slot without counting the run as done.
  ProgressBoard board;
  board.beginBatch(2);
  {
    ProgressBoard::Ticket ticket = board.startRun(100);
    ticket.onSimProgress(50, 1000);
    const ProgressSnapshot mid = board.snapshot();
    EXPECT_EQ(mid.runsActive, 1u);
    ASSERT_EQ(mid.activeSimFractions.size(), 1u);
    EXPECT_DOUBLE_EQ(mid.activeSimFractions[0], 0.5);
    EXPECT_EQ(mid.events, 1000u);
  }
  const ProgressSnapshot snap = board.snapshot();
  EXPECT_EQ(snap.runsActive, 0u);
  EXPECT_EQ(snap.runsDone, 0u);

  // The freed slot is reusable and finishRun folds the exact event count.
  ProgressBoard::Ticket ticket = board.startRun(100);
  ticket.onSimProgress(100, 500);
  board.finishRun(ticket, 750);
  const ProgressSnapshot done = board.snapshot();
  EXPECT_EQ(done.runsDone, 1u);
  EXPECT_EQ(done.events, 1000u + 750u);
}

TEST(Runner, ProgressReporterPaintsFinalFrame) {
  ProgressBoard board;
  board.beginBatch(1);
  {
    ProgressBoard::Ticket ticket = board.startRun(10);
    board.finishRun(ticket, 42);
  }
  std::ostringstream os;
  {
    ProgressReporter reporter(board, os,
                              std::chrono::milliseconds(5));
    reporter.stop();
    reporter.stop();  // idempotent
  }
  const std::string out = os.str();
  EXPECT_NE(out.find("1/1"), std::string::npos) << out;
  EXPECT_NE(out.find('\r'), std::string::npos) << out;
  EXPECT_TRUE(out.ends_with('\n')) << out;
}

}  // namespace
}  // namespace sps::core
