// Unit + property tests: the idle-line index behind the SS/TSS tick gate.
// Every query is checked against a brute-force sweep over the same lines
// that applies the same per-line float test (kernel::testLine): both must
// report the same (priority, id) set and pick the same earliest crossing,
// hence the same verified crossing horizon. Also the dispatch walks' heap
// order against the reference sort.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <numeric>
#include <tuple>
#include <utility>
#include <vector>

#include "sched/core/idle_lines.hpp"
#include "sched/core/idle_order.hpp"
#include "sched/fcfs.hpp"
#include "sched/overhead.hpp"
#include "sched/selective_suspension.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "workload/synthetic.hpp"

namespace sps::sched {
namespace {

using kernel::IdleLineIndex;
using State = IdleLineIndex::State;
using Thresholds = IdleLineIndex::Thresholds;
using Reported = std::vector<std::pair<double, JobId>>;
constexpr double kInf = std::numeric_limits<double>::infinity();

struct Sweep {
  Reported reported;
  IdleLineIndex::Crossing first;
};

/// One idle job as the sweep sees it.
struct LineSpec {
  JobId id;
  State state;
  Time b;
  Time estimate;
  std::uint32_t procs;
};

Thresholds uniformThresholds(double threshold) {
  Thresholds t;
  for (auto& row : t) row.fill(threshold);
  return t;
}

/// Ground truth: every line through the gate's per-line test at its own
/// threshold; lines at +infinity never report or cross, and ties in the
/// crossing go to the lower id, as the index documents.
Sweep bruteForce(const std::vector<LineSpec>& lines, Time now,
                 const Thresholds& thresholds) {
  Sweep sweep;
  for (const LineSpec& line : lines) {
    const double threshold =
        thresholds[static_cast<std::size_t>(line.state)]
                  [IdleLineIndex::widthClassOf(line.procs)];
    if (threshold == kInf) continue;
    const kernel::LineTest t = kernel::testLine(
        now, threshold, line.b, static_cast<double>(line.estimate));
    if (t.reported)
      sweep.reported.emplace_back(t.value, line.id);
    else if (t.value < sweep.first.time ||
             (t.value == sweep.first.time && line.id < sweep.first.id))
      sweep.first = {t.value, line.id, threshold};
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

using LineMap = std::map<JobId, LineSpec>;

void expectSameQuery(const IdleLineIndex& index, const LineMap& lines,
                     Time now, const Thresholds& thresholds) {
  std::vector<IdleLineIndex::Hit> hits;
  const IdleLineIndex::Crossing first = index.query(now, thresholds, hits);
  const Reported got = pairsOf(hits);
  std::vector<LineSpec> specs;
  for (const auto& entry : lines) specs.push_back(entry.second);
  Sweep want = bruteForce(specs, now, thresholds);
  std::sort(want.reported.begin(), want.reported.end());
  ASSERT_EQ(got, want.reported) << "now " << now;
  EXPECT_EQ(first.id, want.first.id) << "now " << now;
  EXPECT_EQ(first.time, want.first.time) << "now " << now;
  EXPECT_EQ(first.threshold, want.first.threshold) << "now " << now;
}

void expectSameQuery(const IdleLineIndex& index, const LineMap& lines,
                     Time now, double threshold) {
  expectSameQuery(index, lines, now, uniformThresholds(threshold));
}

/// The ids forEachFitting visits, sorted.
std::vector<JobId> fitting(const IdleLineIndex& index, State state,
                           std::uint32_t maxWidth) {
  std::vector<JobId> ids;
  index.forEachFitting(state, maxWidth,
                       [&ids](JobId id) { ids.push_back(id); });
  std::sort(ids.begin(), ids.end());
  return ids;
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

/// Widths on and around the width-class edges (powers of two).
std::uint32_t edgyWidth(Rng& rng) {
  const auto p = std::uint32_t{1} << rng.uniformInt(0, 10);
  return std::max<std::uint32_t>(
      1, p + static_cast<std::uint32_t>(rng.uniformInt(0, 1)));
}

/// Per-line thresholds as the gate builds them: per width class, some
/// +infinity, with the lowest ones near `base`.
Thresholds randomThresholds(Rng& rng, double base) {
  Thresholds t;
  for (auto& row : t)
    for (double& threshold : row)
      threshold = rng.uniformInt(0, 4) == 0
                      ? kInf
                      : base * rng.logUniform(1.0, 50.0);
  return t;
}

TEST(IdleLineIndex, WidthClassesTileTheWidths) {
  EXPECT_EQ(IdleLineIndex::widthClassOf(1), 0u);
  EXPECT_EQ(IdleLineIndex::widthClassOf(2), 1u);
  EXPECT_EQ(IdleLineIndex::widthClassOf(3), 2u);
  EXPECT_EQ(IdleLineIndex::widthClassOf(4), 2u);
  EXPECT_EQ(IdleLineIndex::widthClassOf(5), 3u);
  EXPECT_EQ(IdleLineIndex::widthClassOf(0xffffffffU), 32u);
  for (std::size_t c = 0; c < IdleLineIndex::kWidthClasses; ++c) {
    EXPECT_EQ(IdleLineIndex::widthClassOf(IdleLineIndex::narrowestOf(c)), c);
    EXPECT_EQ(IdleLineIndex::widthClassOf(IdleLineIndex::widestOf(c)), c);
    if (c > 0) {
      EXPECT_EQ(IdleLineIndex::narrowestOf(c),
                IdleLineIndex::widestOf(c - 1) + 1);
    }
    // Each class lies inside one reach class of the half-width rule.
    EXPECT_EQ(
        kernel::VictimSteps::reachOf(IdleLineIndex::narrowestOf(c), true),
        kernel::VictimSteps::reachOf(IdleLineIndex::widestOf(c), true));
  }
}

TEST(IdleLineIndex, RandomQueriesMatchBruteForce) {
  Rng rng(2024);
  IdleLineIndex index;
  LineMap lines;
  JobId nextId = 0;
  Time now = 0;
  for (int round = 0; round < 400; ++round) {
    now += rng.uniformInt(0, 5000);
    // Arrivals: b = now, often several at once (ties on b).
    const auto arrivals = rng.uniformInt(0, 6);
    for (std::int64_t i = 0; i < arrivals; ++i) {
      const LineSpec line{nextId++, State::Queued, now, edgyEstimate(rng),
                          edgyWidth(rng)};
      index.insert(line.id, line.state, line.b, line.estimate, line.procs);
      lines[line.id] = line;
    }
    // Departures, and re-entries as Suspended lines with a non-monotone b
    // (a job suspended now after waiting w in total has b = now − w,
    // anywhere in the past).
    const auto departures = rng.uniformInt(0, 4);
    for (std::int64_t i = 0; i < departures && !lines.empty(); ++i) {
      auto it = lines.begin();
      std::advance(it, rng.uniformInt(
                           0, static_cast<std::int64_t>(lines.size()) - 1));
      LineSpec line = it->second;
      index.erase(line.id, line.state, line.b, line.estimate);
      lines.erase(it);
      if (rng.uniformInt(0, 2) == 0) {
        line.state = State::Suspended;
        line.b = now - rng.uniformInt(0, now);
        line.estimate = edgyEstimate(rng);
        index.insert(line.id, line.state, line.b, line.estimate, line.procs);
        lines[line.id] = line;
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
      const auto est = static_cast<double>(it->second.estimate);
      thresholds.push_back((static_cast<double>(now - it->second.b) + est) /
                           est);
    }
    for (const double threshold : thresholds) {
      expectSameQuery(index, lines, now, threshold);
      // Per-line thresholds around the same level.
      expectSameQuery(index, lines, now, randomThresholds(rng, threshold));
    }
    // The width-bounded gather per state, against a filter of the lines.
    for (const State state : {State::Queued, State::Suspended}) {
      const auto maxWidth = static_cast<std::uint32_t>(
          rng.uniformInt(0, 1) == 0 ? edgyWidth(rng) : rng.uniformInt(0, 1100));
      std::vector<JobId> want;
      for (const auto& [id, line] : lines)
        if (line.state == state && line.procs <= maxWidth) want.push_back(id);
      ASSERT_EQ(fitting(index, state, maxWidth), want) << "width " << maxWidth;
    }
  }
}

TEST(IdleLineIndex, EqualLinesTieOnId) {
  IdleLineIndex index;
  LineMap lines;
  for (JobId id : {7u, 3u, 5u}) {
    index.insert(id, State::Queued, 100, 64, 1);
    lines[id] = {id, State::Queued, 100, 64, 1};
  }
  std::vector<IdleLineIndex::Hit> hits;
  const IdleLineIndex::Crossing first = index.query(150, 2.0, hits);
  EXPECT_TRUE(hits.empty());
  EXPECT_EQ(first.id, 3u);
  EXPECT_EQ(first.time, 164.0);
  expectSameQuery(index, lines, 164, 2.0);  // all three exactly at T
  index.erase(3, State::Queued, 100, 64);
  lines.erase(3);
  expectSameQuery(index, lines, 150, 2.0);
}

// Lines whose float priority reaches T while their exact crossing lies a
// hair after now: the division x = (wait + e) / e rounds up, the slack test
// defers to it, and the lines are reported. Their band's lower bound
// b + (T − 1)·lo (lo == e here: every estimate sits on a band's low edge)
// lands past now by up to half an ulp of x times e, far more than an ulp
// of a small clock, and a just-arrived short job crosses T sooner still —
// only the scan margin keeps the second such line in the scan. Each state
// keeps its own bands, so each state gets such a pair.
TEST(IdleLineIndex, RoundedUpPrioritiesOnABandEdgeAreReported) {
  std::size_t roundedUp = 0;
  for (const Time e : {Time{3} << 38, Time{5} << 37, Time{7} << 36}) {
    for (Time wait = 1; wait <= 64; ++wait) {
      const auto est = static_cast<double>(e);
      const double x = (static_cast<double>(wait) + est) / est;
      if (!((x - 1.0) * est > static_cast<double>(wait))) continue;
      ++roundedUp;
      IdleLineIndex index;
      LineMap lines = {{0, {0, State::Queued, 0, e, 1}},
                       {1, {1, State::Queued, 0, e, 1}},
                       {2, {2, State::Queued, wait, 4, 1}},
                       {3, {3, State::Suspended, 0, e, 1}},
                       {4, {4, State::Suspended, 0, e, 1}}};
      for (const auto& [id, line] : lines)
        index.insert(id, line.state, line.b, line.estimate, line.procs);
      expectSameQuery(index, lines, wait, x);
    }
  }
  EXPECT_GT(roundedUp, 0u) << "no rounded-up case exercised";
}

/// Brute force over the simulator's own idle lists, exactly as the gate
/// sweep did: every Queued job and every Suspended (not Suspending) one.
Sweep simulatorSweep(const sim::Simulator& s, const Thresholds& thresholds) {
  std::vector<LineSpec> lines;
  auto add = [&](JobId id, State state) {
    lines.push_back({id, state, s.now() - s.accumulatedWait(id),
                     s.job(id).estimate, s.job(id).procs});
  };
  for (const JobId id : s.queuedJobs()) add(id, State::Queued);
  for (const JobId id : s.suspendedJobs())
    if (s.state(id) == sim::JobState::Suspended) add(id, State::Suspended);
  return bruteForce(lines, s.now(), thresholds);
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
  std::size_t gathered = 0;
  // After every dispatched event: withdraw an idle job once in a while
  // (rarely: the backlog is mostly the long jobs a cancel removes), then
  // compare the index with the sweep at three thresholds — exactly 1, a
  // random one, and the gate's own (SF x the weakest running priority) —
  // and at per-line thresholds around the gate's, and each state's
  // width-bounded gather with a filter of the simulator's own lists.
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
    const auto maxWidth = static_cast<std::uint32_t>(
        rng.uniformInt(0, 1) == 0 ? s.freeCount()
                                  : rng.uniformInt(0, trace.machineProcs));
    for (const State state : {State::Queued, State::Suspended}) {
      const sim::JobState simState = state == State::Queued
                                         ? sim::JobState::Queued
                                         : sim::JobState::Suspended;
      std::vector<JobId> want;
      for (const JobId id : state == State::Queued ? s.queuedJobs()
                                                   : s.suspendedJobs())
        if (s.state(id) == simState && s.job(id).procs <= maxWidth)
          want.push_back(id);
      std::sort(want.begin(), want.end());
      ASSERT_EQ(fitting(index, state, maxWidth), want) << "at t=" << s.now();
      gathered += want.size();
    }
    double minRunning = std::numeric_limits<double>::infinity();
    for (const JobId id : s.runningJobs())
      minRunning = std::min(minRunning, s.xfactor(id));
    std::vector<Thresholds> thresholds = {
        uniformThresholds(1.0), uniformThresholds(rng.uniform(1.0, 30.0))};
    if (std::isfinite(minRunning)) {
      thresholds.push_back(uniformThresholds(1.5 * minRunning));
      thresholds.push_back(randomThresholds(rng, 1.5 * minRunning));
    }
    for (const Thresholds& threshold : thresholds) {
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
      EXPECT_EQ(first.threshold, want.first.threshold);
      // Same winner, so the same verified horizon the gate caches.
      if (first.id != kInvalidJob) {
        EXPECT_EQ(kernel::crossingHorizon(s, first.id, s.xfactor(first.id),
                                          first.threshold),
                  kernel::crossingHorizon(s, want.first.id,
                                          s.xfactor(want.first.id),
                                          want.first.threshold));
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
  EXPECT_GT(gathered, 0u);
  EXPECT_GT(cancels, 0u);
  EXPECT_GT(suspendedSeen, 0u) << "no Suspended job was ever indexed";
}

// VictimSteps' inverse query against cut, on the running sets of a
// deep-queue SS run at random TSS limits and suspension factors: for every
// priority p and reach, cut(p, sf, r).bound >= need exactly when
// !(p < threshold(need, sf, r)) — at, just below and just above every SF
// boundary, and for needs beyond the whole reachable gain (+infinity).
TEST(VictimSteps, ThresholdInvertsCut) {
  workload::SyntheticConfig config = workload::sdscConfig(1500, 7);
  config.offeredLoad = 1.3;
  const workload::Trace trace = workload::generateTrace(config);
  SelectiveSuspension policy(SsConfig{});
  sim::Simulator s(trace, policy);
  kernel::VictimIndex victims;
  victims.attach(s);
  kernel::VictimSteps steps;
  Rng rng(17);
  std::size_t checks = 0;
  std::size_t infinite = 0;
  while (s.step()) {
    if (rng.uniformInt(0, 19) != 0 || victims.empty()) continue;
    std::array<double, kernel::VictimIndex::kCategories> limits;
    for (double& limit : limits)
      limit = rng.uniformInt(0, 2) == 0 ? rng.logUniform(1.0, 50.0) : kInf;
    steps.build(victims, limits);
    const double sf = rng.uniform(1.0, 3.0);
    std::vector<double> priorities = {1.0, rng.logUniform(1.0, 200.0)};
    for (const kernel::VictimIndex::Entry& step : steps.steps()) {
      const double edge = sf * step.xfactor;
      priorities.push_back(edge);
      priorities.push_back(std::nextafter(edge, 0.0));
      priorities.push_back(std::nextafter(edge, kInf));
    }
    for (int reach = 0; reach < 4; ++reach) {
      const std::uint32_t total = steps.cut(kInf, sf, reach).bound;
      const auto some = static_cast<std::uint32_t>(
          rng.uniformInt(1, std::max<std::int64_t>(1, total)));
      for (const std::uint32_t need : {0U, 1U, some, total, total + 1}) {
        const double threshold = steps.threshold(need, sf, reach);
        if (need > total) {
          EXPECT_EQ(threshold, kInf);
          ++infinite;
        }
        for (const double p : priorities) {
          ASSERT_EQ(steps.cut(p, sf, reach).bound >= need, !(p < threshold))
              << "p " << p << " need " << need << " reach " << reach;
        }
        ++checks;
      }
    }
  }
  EXPECT_GT(checks, 1000u);
  EXPECT_GT(infinite, 0u);
}

// The SS/TSS dispatch walk's heap against the reference walk's sort: on
// random idle lists dense in tied priorities and tied submit times,
// repeatedly popping the heap yields exactly the HitOrder sort's order.
TEST(IdleOrder, WalkHeapPopsInSortOrder) {
  Rng rng(23);
  std::size_t tiedPriorities = 0;
  std::size_t tiedSubmits = 0;
  for (int round = 0; round < 500; ++round) {
    const auto n = static_cast<std::size_t>(rng.uniformInt(0, 60));
    const auto distinct = rng.uniformInt(1, 6);
    // HitOrder reads submit times from the simulator's job rows.
    FcfsScheduler policy;
    sim::Simulator s("order", 1, policy, {});
    Time submit = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.uniformInt(0, distinct) == 0) ++submit;
      workload::Job j;
      j.submit = submit;
      j.runtime = j.estimate = 10;
      s.submit(j);
    }
    std::vector<JobId> ids(n);
    std::iota(ids.begin(), ids.end(), JobId{0});
    std::shuffle(ids.begin(), ids.end(), rng);
    std::vector<IdleLineIndex::Hit> hits;
    for (const JobId id : ids) {
      const auto level = static_cast<double>(rng.uniformInt(0, distinct));
      hits.push_back({1.0 + 0.5 * level, 10.0, id, 1});
    }
    const kernel::HitOrder order{s};
    std::vector<IdleLineIndex::Hit> sorted = hits;
    std::sort(sorted.begin(), sorted.end(), order);
    for (std::size_t i = 1; i < sorted.size(); ++i) {
      if (sorted[i].x != sorted[i - 1].x) continue;
      ++tiedPriorities;
      if (s.job(sorted[i].id).submit == s.job(sorted[i - 1].id).submit)
        ++tiedSubmits;
    }
    kernel::makeWalkHeap(hits, order);
    for (const IdleLineIndex::Hit& want : sorted) {
      ASSERT_FALSE(hits.empty());
      const IdleLineIndex::Hit got = kernel::popWalkHeap(hits, order);
      ASSERT_EQ(got.id, want.id) << "round " << round;
      ASSERT_EQ(got.x, want.x);
    }
    EXPECT_TRUE(hits.empty());
  }
  EXPECT_GT(tiedPriorities, 0u);
  EXPECT_GT(tiedSubmits, 0u);
}

}  // namespace
}  // namespace sps::sched
