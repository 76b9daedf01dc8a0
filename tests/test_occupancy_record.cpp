// Property test: the occupancy record behind the SS resume walk and the
// reentry floors. A scripted run starts, suspends (with and without a
// drain), resumes, finishes and cancels jobs at random; after every
// transition the record's held counts, its unheld list and every floor
// must equal a recomputation from procSet(), the free set and the running
// set. 96 processors keep every set in ProcSet's inline words and give
// the record one list per processor; 5,000 put most sets in ProcSet's
// word window and give the record one list per 64-processor word.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sched/core/occupancy_record.hpp"
#include "sched/core/victim_index.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "workload/job.hpp"

namespace sps::sched {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kSf = 1.5;

/// Acts only when the test tells it to; cancellable, so the test may
/// withdraw suspended jobs.
class ScriptedPolicy final : public sim::SchedulingPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "scripted"; }
  void onJobArrival(sim::Simulator&, JobId) override {}
  void onJobCompletion(sim::Simulator&, JobId) override {}
  [[nodiscard]] bool supportsCancel() const override { return true; }
};

/// Even jobs drain for 30 s on suspension (Running -> Suspending ->
/// Suspended); odd ones free their processors at once.
class EvenJobsDrain final : public sim::OverheadPolicy {
 public:
  [[nodiscard]] Time suspendOverhead(JobId id) const override {
    return id % 2 == 0 ? 30 : 0;
  }
  [[nodiscard]] Time resumeOverhead(JobId) const override { return 0; }
};

workload::Trace randomTrace(std::uint32_t procs, std::uint64_t seed) {
  Rng rng(seed);
  workload::Trace trace;
  trace.name = "occupancy";
  trace.machineProcs = procs;
  Time t = 0;
  for (JobId id = 0; id < 400; ++id) {
    workload::Job job;
    job.id = id;
    t += rng.uniformInt(0, 40);
    job.submit = t;
    job.runtime = rng.uniformInt(50, 4000);
    job.estimate = job.runtime * rng.uniformInt(1, 4);
    job.procs = static_cast<std::uint32_t>(
        rng.uniformInt(1, std::max<std::int64_t>(1, procs / 6)));
    trace.jobs.push_back(job);
  }
  return trace;
}

struct Tally {
  std::size_t checks = 0;
  std::size_t drains = 0;
  std::size_t resumes = 0;
  std::size_t cancels = 0;
  std::size_t heldSeen = 0;    ///< suspended jobs seen with held > 0
  std::size_t finiteFloors = 0;
  std::uint32_t highestOwed = 0;  ///< highest processor ever owed
};

Tally runScripted(std::uint32_t procs, std::uint64_t seed) {
  const workload::Trace trace = randomTrace(procs, seed);
  ScriptedPolicy policy;
  const EvenJobsDrain drain;
  sim::Simulator::Config config;
  config.overhead = &drain;
  sim::Simulator s(trace, policy, config);
  kernel::VictimIndex victims;
  kernel::OccupancyRecord record;
  victims.attach(s);
  record.attach(s, kSf);
  Rng rng(seed + 1);
  Tally tally;

  // Registered last, so the record and the owner map have seen each
  // transition before it is checked.
  s.observers().onStateChange([&](const sim::Simulator& v, JobId id,
                                  sim::JobState from, sim::JobState to) {
    if (from == sim::JobState::Suspending) ++tally.drains;
    if (from == sim::JobState::Suspended && to == sim::JobState::Running)
      ++tally.resumes;
    // Floors are read on about half the transitions, so a cached floor
    // also has to survive several transitions before its next read.
    const bool readFloors = rng.uniformInt(0, 1) == 0;
    std::vector<JobId> want;
    std::size_t suspended = 0;
    for (const JobId k : v.suspendedJobs()) {
      if (v.state(k) != sim::JobState::Suspended) continue;
      ++suspended;
      const sim::ProcSet& owed = v.procSet(k);
      owed.forEach([&](std::uint32_t p) {
        tally.highestOwed = std::max(tally.highestOwed, p);
      });
      const std::uint32_t held = (owed - v.freeSet()).count();
      ASSERT_EQ(record.heldCount(k), held)
          << "job " << k << " after " << id << ' '
          << sim::jobStateName(from) << " -> " << sim::jobStateName(to)
          << " at t=" << v.now();
      if (held == 0)
        want.push_back(k);
      else
        ++tally.heldSeen;
      if (!readFloors) continue;
      double highest = -kInf;
      for (const JobId r : v.runningJobs())
        if (v.procSet(r).intersects(owed))
          highest = std::max(highest, v.xfactor(r));
      const double floor = highest == -kInf ? kInf : kSf * highest;
      ASSERT_EQ(record.floor(k, victims), floor)
          << "job " << k << " after " << id << ' '
          << sim::jobStateName(from) << " -> " << sim::jobStateName(to)
          << " at t=" << v.now();
      if (floor != kInf) ++tally.finiteFloors;
    }
    ASSERT_EQ(record.size(), suspended);
    std::vector<JobId> got;
    record.forEachUnheld([&](JobId k, std::uint32_t width) {
      EXPECT_EQ(width, v.job(k).procs);
      got.push_back(k);
    });
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    ASSERT_EQ(got, want) << "at t=" << v.now();
    ++tally.checks;
  });

  auto pick = [&rng](const std::vector<JobId>& jobs) {
    return jobs[static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(jobs.size()) - 1))];
  };
  auto fits = [&s](JobId id) { return s.procSet(id).isSubsetOf(s.freeSet()); };
  // A few random actions between events. Fresh starts take the lowest free
  // processors whoever is owed them, so owed sets overlap and suspended
  // jobs sit under running ones.
  auto act = [&] {
    for (std::int64_t k = rng.uniformInt(0, 4); k > 0; --k) {
      switch (rng.uniformInt(0, 9)) {
        case 0:
        case 1:
        case 2:
        case 3:
          if (!s.queuedJobs().empty()) {
            const JobId id = pick(s.queuedJobs());
            if (s.job(id).procs <= s.freeCount()) s.startJob(id);
          }
          break;
        case 4:
        case 5:
          if (!s.runningJobs().empty()) s.suspendJob(pick(s.runningJobs()));
          break;
        case 6:
        case 7:
        case 8:
          if (!s.suspendedJobs().empty()) {
            const JobId id = pick(s.suspendedJobs());
            if (s.state(id) == sim::JobState::Suspended && fits(id))
              s.resumeJob(id);
          }
          break;
        default:
          if (!s.suspendedJobs().empty() && rng.uniformInt(0, 3) == 0) {
            const JobId id = pick(s.suspendedJobs());
            if (s.state(id) == sim::JobState::Suspended && s.cancelJob(id))
              ++tally.cancels;
          }
          break;
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
  };
  // Once the events run out, resume and start whatever fits so the run
  // ends with every job finished or cancelled.
  auto settle = [&] {
    const std::vector<JobId> suspended = s.suspendedJobs();
    for (const JobId id : suspended)
      if (s.state(id) == sim::JobState::Suspended && fits(id)) s.resumeJob(id);
    const std::vector<JobId> queued = s.queuedJobs();
    for (const JobId id : queued)
      if (s.job(id).procs <= s.freeCount()) s.startJob(id);
  };
  for (std::size_t guard = 0; s.unfinishedJobs() > 0 && guard < 200000;
       ++guard) {
    act();
    if (::testing::Test::HasFatalFailure()) return tally;
    if (!s.step()) settle();
    if (::testing::Test::HasFatalFailure()) return tally;
  }
  EXPECT_EQ(s.unfinishedJobs(), 0u);
  s.drain();
  EXPECT_EQ(record.size(), 0u);
  EXPECT_EQ(record.unheldCount(), 0u);
  return tally;
}

TEST(OccupancyRecord, MatchesRecomputationOnInlineSets) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Tally t = runScripted(96, seed);
    if (::testing::Test::HasFatalFailure()) return;
    EXPECT_GT(t.checks, 1000u) << seed;
    EXPECT_GT(t.drains, 0u) << seed;
    EXPECT_GT(t.resumes, 0u) << seed;
    EXPECT_GT(t.cancels, 0u) << seed;
    EXPECT_GT(t.heldSeen, 0u) << seed;
    EXPECT_GT(t.finiteFloors, 0u) << seed;
  }
}

TEST(OccupancyRecord, MatchesRecomputationOnWindowSets) {
  const Tally t = runScripted(5000, 7);
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_GT(t.checks, 1000u);
  EXPECT_GT(t.drains, 0u);
  EXPECT_GT(t.resumes, 0u);
  EXPECT_GT(t.cancels, 0u);
  EXPECT_GT(t.heldSeen, 0u);
  EXPECT_GT(t.finiteFloors, 0u);
  EXPECT_GE(t.highestOwed, sim::ProcSet::kInlineBits)
      << "no owed set reached ProcSet's word window";
}

}  // namespace
}  // namespace sps::sched
