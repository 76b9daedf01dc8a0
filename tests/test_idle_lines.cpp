// Unit + property tests: the idle-line index behind the SS/TSS tick gate.
// Every query is checked against a brute-force sweep over the same lines
// that applies the same per-line float test (kernel::testLine): both must
// report the same (priority, id) set and pick the same earliest crossing,
// hence the same verified crossing horizon.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "sched/core/idle_lines.hpp"
#include "sched/overhead.hpp"
#include "sched/selective_suspension.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "workload/synthetic.hpp"

namespace sps::sched {
namespace {

using kernel::IdleLineIndex;
using Reported = std::vector<std::pair<double, JobId>>;

struct Sweep {
  Reported reported;
  IdleLineIndex::Crossing first;
};

/// One idle job as the sweep sees it: (id, b, estimate).
using LineSpec = std::tuple<JobId, Time, Time>;

/// Ground truth: every line through the gate's per-line test; ties in the
/// crossing go to the lower id, as the index documents.
Sweep bruteForce(const std::vector<LineSpec>& lines, Time now,
                 double threshold) {
  Sweep sweep;
  for (const auto& [id, b, estimate] : lines) {
    const kernel::LineTest t =
        kernel::testLine(now, threshold, b, static_cast<double>(estimate));
    if (t.reported)
      sweep.reported.emplace_back(t.value, id);
    else if (t.value < sweep.first.time ||
             (t.value == sweep.first.time && id < sweep.first.id))
      sweep.first = {t.value, id};
  }
  return sweep;
}

/// The (priority, id) pairs of a query's hits, sorted.
Reported pairsOf(const std::vector<IdleLineIndex::Hit>& hits) {
  Reported pairs;
  for (const IdleLineIndex::Hit& hit : hits) pairs.emplace_back(hit.x, hit.id);
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

void expectSameQuery(const IdleLineIndex& index,
                     const std::map<JobId, std::pair<Time, Time>>& lines,
                     Time now, double threshold) {
  std::vector<IdleLineIndex::Hit> hits;
  const IdleLineIndex::Crossing first = index.query(now, threshold, hits);
  const Reported got = pairsOf(hits);
  std::vector<LineSpec> specs;
  for (const auto& [id, line] : lines)
    specs.emplace_back(id, line.first, line.second);
  Sweep want = bruteForce(specs, now, threshold);
  std::sort(want.reported.begin(), want.reported.end());
  ASSERT_EQ(got, want.reported) << "now " << now << " T " << threshold;
  EXPECT_EQ(first.id, want.first.id) << "now " << now << " T " << threshold;
  EXPECT_EQ(first.time, want.first.time) << "now " << now << " T "
                                         << threshold;
}

/// Estimates that sit on band edges: 1–3 s (a band each), powers of two
/// and their neighbours, plus a spread of ordinary values.
Time edgyEstimate(Rng& rng) {
  switch (rng.uniformInt(0, 3)) {
    case 0:
      return rng.uniformInt(1, 3);
    case 1: {
      const Time p = Time{1} << rng.uniformInt(2, 20);
      return p + rng.uniformInt(-1, 1);
    }
    default:
      return rng.logUniformInt(1, 200000);
  }
}

TEST(IdleLineIndex, RandomQueriesMatchBruteForce) {
  Rng rng(2024);
  IdleLineIndex index;
  std::map<JobId, std::pair<Time, Time>> lines;  // id -> (b, estimate)
  JobId nextId = 0;
  Time now = 0;
  for (int round = 0; round < 400; ++round) {
    now += rng.uniformInt(0, 5000);
    // Arrivals: b = now, often several at once (ties on b).
    const auto arrivals = rng.uniformInt(0, 6);
    for (std::int64_t i = 0; i < arrivals; ++i) {
      const Time estimate = edgyEstimate(rng);
      index.insert(nextId, now, estimate, 1);
      lines[nextId++] = {now, estimate};
    }
    // Departures, and re-entries with a non-monotone b (a job suspended
    // now after waiting w in total has b = now − w, anywhere in the past).
    const auto departures = rng.uniformInt(0, 4);
    for (std::int64_t i = 0; i < departures && !lines.empty(); ++i) {
      auto it = lines.begin();
      std::advance(it, rng.uniformInt(
                           0, static_cast<std::int64_t>(lines.size()) - 1));
      const JobId id = it->first;
      index.erase(id, it->second.first, it->second.second);
      lines.erase(it);
      if (rng.uniformInt(0, 2) == 0) {
        const Time b = now - rng.uniformInt(0, now);
        const Time estimate = edgyEstimate(rng);
        index.insert(id, b, estimate, 1);
        lines[id] = {b, estimate};
      }
    }
    ASSERT_EQ(index.size(), lines.size());
    // Thresholds: exactly 1, random, and exactly at some line's current
    // priority (the boundary the margin has to cover).
    std::vector<double> thresholds = {1.0, rng.uniform(1.0, 4.0),
                                      rng.logUniform(1.0, 5000.0)};
    if (!lines.empty()) {
      auto it = lines.begin();
      std::advance(it, rng.uniformInt(
                           0, static_cast<std::int64_t>(lines.size()) - 1));
      const auto [b, estimate] = it->second;
      const auto est = static_cast<double>(estimate);
      thresholds.push_back((static_cast<double>(now - b) + est) / est);
    }
    for (const double threshold : thresholds)
      expectSameQuery(index, lines, now, threshold);
  }
}

TEST(IdleLineIndex, EqualLinesTieOnId) {
  IdleLineIndex index;
  std::map<JobId, std::pair<Time, Time>> lines;
  for (JobId id : {7u, 3u, 5u}) {
    index.insert(id, 100, 64, 1);
    lines[id] = {100, 64};
  }
  std::vector<IdleLineIndex::Hit> hits;
  const IdleLineIndex::Crossing first = index.query(150, 2.0, hits);
  EXPECT_TRUE(hits.empty());
  EXPECT_EQ(first.id, 3u);
  EXPECT_EQ(first.time, 164.0);
  expectSameQuery(index, lines, 164, 2.0);  // all three exactly at T
  index.erase(3, 100, 64);
  lines.erase(3);
  expectSameQuery(index, lines, 150, 2.0);
}

// Lines whose float priority reaches T while their exact crossing lies a
// hair after now: the division x = (wait + e) / e rounds up, the slack test
// defers to it, and the lines are reported. Their band's lower bound
// b + (T − 1)·lo (lo == e here: every estimate sits on a band's low edge)
// lands past now by up to half an ulp of x times e, far more than an ulp
// of a small clock, and a just-arrived short job crosses T sooner still —
// only the scan margin keeps the second such line in the scan.
TEST(IdleLineIndex, RoundedUpPrioritiesOnABandEdgeAreReported) {
  std::size_t roundedUp = 0;
  for (const Time e : {Time{3} << 38, Time{5} << 37, Time{7} << 36}) {
    for (Time wait = 1; wait <= 64; ++wait) {
      const auto est = static_cast<double>(e);
      const double x = (static_cast<double>(wait) + est) / est;
      if (!((x - 1.0) * est > static_cast<double>(wait))) continue;
      ++roundedUp;
      IdleLineIndex index;
      std::map<JobId, std::pair<Time, Time>> lines = {
          {0, {0, e}}, {1, {0, e}}, {2, {wait, 4}}};
      for (const auto& [id, line] : lines)
        index.insert(id, line.first, line.second, 1);
      expectSameQuery(index, lines, wait, x);
    }
  }
  EXPECT_GT(roundedUp, 0u) << "no rounded-up case exercised";
}

/// Brute force over the simulator's own idle lists, exactly as the gate
/// sweep did: every Queued job and every Suspended (not Suspending) one.
Sweep simulatorSweep(const sim::Simulator& s, double threshold) {
  std::vector<LineSpec> lines;
  auto add = [&](JobId id) {
    lines.emplace_back(id, s.now() - s.accumulatedWait(id),
                       s.job(id).estimate);
  };
  for (const JobId id : s.queuedJobs()) add(id);
  for (const JobId id : s.suspendedJobs())
    if (s.state(id) == sim::JobState::Suspended) add(id);
  return bruteForce(lines, s.now(), threshold);
}

// A deep-queue SS run (SF 1.5, disk-swap overhead, so suspensions drain
// through Suspending before the job re-enters as Suspended with an earlier
// b than the queue's newcomers), fed through submit() and thinned by
// cancellations.
TEST(IdleLineIndex, TracksStreamedSimulationWithCancellations) {
  workload::SyntheticConfig config = workload::sdscConfig(3000, 42);
  config.offeredLoad = 1.3;
  const workload::Trace trace = workload::generateTrace(config);
  const DiskSwapOverhead swap(trace);
  SsConfig ss;
  ss.suspensionFactor = 1.5;
  SelectiveSuspension policy(ss);
  sim::Simulator::Config simConfig;
  simConfig.overhead = &swap;
  // Streaming construction: every id the index sees lies beyond the (empty)
  // initial trace.
  sim::Simulator s("stream", trace.machineProcs, policy, simConfig);
  IdleLineIndex index;
  index.attach(s);
  Rng rng(99);
  std::size_t checks = 0;
  std::size_t reportedTotal = 0;
  std::size_t cancels = 0;
  std::size_t suspendedSeen = 0;
  std::size_t deepest = 0;
  // After every dispatched event: withdraw an idle job once in a while
  // (rarely: the backlog is mostly the long jobs a cancel removes), then
  // compare the index with the sweep at three thresholds — exactly 1, a
  // random one, and the gate's own (SF x the weakest running priority).
  auto check = [&] {
    if (rng.uniformInt(0, 999) == 0 && !s.queuedJobs().empty()) {
      const auto pick = rng.uniformInt(
          0, static_cast<std::int64_t>(s.queuedJobs().size()) - 1);
      if (s.cancelJob(s.queuedJobs()[static_cast<std::size_t>(pick)]))
        ++cancels;
    }
    if (rng.uniformInt(0, 1999) == 0 && !s.suspendedJobs().empty()) {
      if (s.cancelJob(s.suspendedJobs().front())) ++cancels;
    }
    std::size_t idle = s.queuedJobs().size();
    for (const JobId id : s.suspendedJobs())
      if (s.state(id) == sim::JobState::Suspended) ++idle;
    suspendedSeen += idle - s.queuedJobs().size();
    deepest = std::max(deepest, idle);
    ASSERT_EQ(index.size(), idle) << "at t=" << s.now();
    if (idle == 0) return;
    double minRunning = std::numeric_limits<double>::infinity();
    for (const JobId id : s.runningJobs())
      minRunning = std::min(minRunning, s.xfactor(id));
    std::vector<double> thresholds = {1.0, rng.uniform(1.0, 30.0)};
    if (std::isfinite(minRunning)) thresholds.push_back(1.5 * minRunning);
    for (const double threshold : thresholds) {
      std::vector<IdleLineIndex::Hit> hits;
      const IdleLineIndex::Crossing first =
          index.query(s.now(), threshold, hits);
      for (const IdleLineIndex::Hit& hit : hits) {
        EXPECT_EQ(hit.est, static_cast<double>(s.job(hit.id).estimate));
        EXPECT_EQ(hit.procs, s.job(hit.id).procs);
      }
      const Reported got = pairsOf(hits);
      Sweep want = simulatorSweep(s, threshold);
      std::sort(want.reported.begin(), want.reported.end());
      ASSERT_EQ(got, want.reported) << "at t=" << s.now();
      ASSERT_EQ(first.id, want.first.id) << "at t=" << s.now();
      EXPECT_EQ(first.time, want.first.time);
      // Same winner, so the same verified horizon the gate caches.
      if (first.id != kInvalidJob) {
        EXPECT_EQ(kernel::crossingHorizon(s, first.id, s.xfactor(first.id),
                                          threshold),
                  kernel::crossingHorizon(s, want.first.id,
                                          s.xfactor(want.first.id),
                                          threshold));
      }
      reportedTotal += got.size();
      ++checks;
    }
  };
  std::size_t next = 0;
  while (true) {
    const Time event = s.nextEventTime();
    if (next < trace.jobs.size() &&
        (event == kNoTime || trace.jobs[next].submit < event)) {
      // Submit the jobs due at the next submit time before the clock
      // passes it (the stream must stay monotone).
      const Time due = trace.jobs[next].submit;
      while (next < trace.jobs.size() && trace.jobs[next].submit == due)
        s.submit(trace.jobs[next++]);
      continue;
    }
    if (!s.step()) break;
    check();
    if (::testing::Test::HasFatalFailure()) return;
  }
  s.drain();
  EXPECT_EQ(index.size(), 0u);
  EXPECT_GT(checks, 50000u);
  EXPECT_GE(deepest, 100u) << "the trace no longer backs up the queue";
  EXPECT_GT(reportedTotal, 0u);
  EXPECT_GT(cancels, 0u);
  EXPECT_GT(suspendedSeen, 0u) << "no Suspended job was ever indexed";
}

}  // namespace
}  // namespace sps::sched
