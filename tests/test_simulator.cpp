// Unit tests: sim::Simulator — job lifecycle, wait/xfactor accounting,
// suspension mechanics, overhead phases, invariant audits.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/simulation.hpp"
#include "helpers.hpp"
#include "metrics/job_record.hpp"
#include "obs/counters.hpp"
#include "sched/overhead.hpp"
#include "sched/policy_factory.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"
#include "util/chunk_table.hpp"

namespace sps::sim {
namespace {

using test::J;
using test::ScriptedPolicy;
using test::makeTrace;

TEST(Simulator, SingleJobRunsToCompletion) {
  const auto trace = makeTrace(4, {{0, 100, 2}});
  ScriptedPolicy policy;
  Simulator s(trace, policy);
  s.run();
  const JobExec& x = s.exec(0);
  EXPECT_EQ(s.state(0), JobState::Finished);
  EXPECT_EQ(x.firstStart, 0);
  EXPECT_EQ(x.finish, 100);
  EXPECT_EQ(x.suspendCount, 0u);
  EXPECT_EQ(s.lastFinish(), 100);
}

TEST(Simulator, QueuedJobWaitsForProcessors) {
  // Two 4-proc jobs on a 4-proc machine: strictly serial.
  const auto trace = makeTrace(4, {{0, 100, 4}, {10, 50, 4}});
  ScriptedPolicy policy;
  Simulator s(trace, policy);
  s.run();
  EXPECT_EQ(s.exec(0).finish, 100);
  EXPECT_EQ(s.exec(1).firstStart, 100);
  EXPECT_EQ(s.exec(1).finish, 150);
}

TEST(Simulator, AccumulatedWaitFrozenWhileRunning) {
  const auto trace = makeTrace(4, {{0, 100, 4}, {10, 50, 4}});
  ScriptedPolicy policy;
  Time waitAtStart = -1;
  policy.completion = [&](Simulator& s, JobId) {
    ScriptedPolicy::greedy(s);
    if (s.state(1) == JobState::Running)
      waitAtStart = s.accumulatedWait(1);
  };
  Simulator s(trace, policy);
  s.run();
  EXPECT_EQ(waitAtStart, 90);          // waited 10..100
  EXPECT_EQ(s.accumulatedWait(1), 90); // still frozen at completion
}

TEST(Simulator, XfactorUsesEstimate) {
  // Job 1: estimate 200 (runtime 50). After waiting 90 s:
  // xfactor = (90 + 200) / 200 = 1.45.
  const auto trace = makeTrace(4, {{0, 100, 4}, {10, 50, 4, 200}});
  ScriptedPolicy policy;
  double xfAt100 = 0;
  policy.completion = [&](Simulator& s, JobId) {
    xfAt100 = s.xfactor(1);
    ScriptedPolicy::greedy(s);
  };
  Simulator s(trace, policy);
  s.run();
  EXPECT_DOUBLE_EQ(xfAt100, (90.0 + 200.0) / 200.0);
}

TEST(Simulator, SuspensionSplitsWork) {
  // One long job, suspended at t=100 via timer, resumed greedily.
  const auto trace = makeTrace(4, {{0, 300, 4}});
  ScriptedPolicy policy;
  policy.arrival = [](Simulator& s, JobId j) {
    s.startJob(j);
    s.scheduleTimer(100, 1);
  };
  policy.timer = [](Simulator& s, std::uint64_t) {
    s.suspendJob(0);
    // Immediately resumable: processors freed synchronously (no overhead).
    s.resumeJob(0);
  };
  Simulator s(trace, policy);
  s.run();
  EXPECT_EQ(s.exec(0).suspendCount, 1u);
  EXPECT_EQ(s.exec(0).finish, 300);  // no overhead: zero net delay
  EXPECT_EQ(s.totalSuspensions(), 1u);
}

TEST(Simulator, LeavingRunningObserversReadTheEndingSegment) {
  // Job 0 runs [0, 10), is suspended for job 1 ([10, 40)), resumes at 40
  // and finishes at 130. Every observer of a transition out of Running
  // reads the start of the segment that ends; afterwards it is cleared.
  const auto trace = makeTrace(4, {{0, 100, 4}, {10, 30, 4}});
  ScriptedPolicy policy;
  policy.arrival = [](Simulator& s, JobId j) {
    if (j == 1) {
      s.suspendJob(0);
      EXPECT_EQ(s.exec(0).segStart, kNoTime);
    }
    ScriptedPolicy::greedy(s);
  };
  Simulator s(trace, policy);
  std::vector<std::tuple<JobId, JobState, Time>> ending;
  s.observers().onStateChange(
      [&ending](const Simulator& sim, JobId id, JobState from, JobState to) {
        if (from == JobState::Running)
          ending.emplace_back(id, to, sim.exec(id).segStart);
      });
  s.run();
  const std::vector<std::tuple<JobId, JobState, Time>> expected = {
      {0, JobState::Suspended, 0},
      {1, JobState::Finished, 10},
      {0, JobState::Finished, 40}};
  EXPECT_EQ(ending, expected);
  EXPECT_EQ(s.exec(0).finish, 130);
  for (JobId id = 0; id < trace.jobs.size(); ++id)
    EXPECT_EQ(s.exec(id).segStart, kNoTime) << "job " << id;
}

TEST(Simulator, SuspendedJobKeepsSavedProcs) {
  const auto trace = makeTrace(8, {{0, 100, 4}});
  ScriptedPolicy policy;
  ProcSet saved;
  policy.arrival = [&](Simulator& s, JobId j) {
    s.startJob(j);
    saved = s.procSet(j);
    s.scheduleTimer(10, 1);
  };
  policy.timer = [&](Simulator& s, std::uint64_t) {
    s.suspendJob(0);
    EXPECT_EQ(s.state(0), JobState::Suspended);
    EXPECT_EQ(s.procSet(0), saved);
    EXPECT_EQ(s.exec(0).remainingWork, 90);
    s.resumeJob(0);
    EXPECT_EQ(s.procSet(0), saved);
  };
  Simulator s(trace, policy);
  s.run();
  EXPECT_EQ(s.exec(0).finish, 100);
}

TEST(Simulator, StaleCompletionIgnoredAfterSuspension) {
  // Suspend at t=50, resume at once; the original completion event (t=100)
  // must be ignored and the real finish stays 100 only because resume was
  // instant. Delay the resume to t=80 and finish must shift to 130.
  const auto trace = makeTrace(4, {{0, 100, 4}});
  ScriptedPolicy policy;
  policy.arrival = [](Simulator& s, JobId j) {
    s.startJob(j);
    s.scheduleTimer(50, 1);  // suspend
    s.scheduleTimer(80, 2);  // resume
  };
  policy.timer = [](Simulator& s, std::uint64_t tag) {
    if (tag == 1) s.suspendJob(0);
    else s.resumeJob(0);
  };
  Simulator s(trace, policy);
  s.run();
  EXPECT_EQ(s.exec(0).finish, 130);
  EXPECT_EQ(s.exec(0).suspendCount, 1u);
}

TEST(Simulator, AccumulatedRunTracksSegments) {
  const auto trace = makeTrace(4, {{0, 100, 4}});
  ScriptedPolicy policy;
  policy.arrival = [](Simulator& s, JobId j) {
    s.startJob(j);
    s.scheduleTimer(30, 1);
    s.scheduleTimer(60, 2);
    s.scheduleTimer(70, 3);
  };
  policy.timer = [](Simulator& s, std::uint64_t tag) {
    if (tag == 1) {
      EXPECT_EQ(s.accumulatedRun(0), 30);
      s.suspendJob(0);
    } else if (tag == 2) {
      EXPECT_EQ(s.accumulatedRun(0), 30);  // frozen while suspended
      s.resumeJob(0);
    } else {
      EXPECT_EQ(s.accumulatedRun(0), 40);  // 30 + 10 into second segment
    }
  };
  Simulator s(trace, policy);
  s.run();
  EXPECT_EQ(s.exec(0).finish, 130);
}

TEST(Simulator, InstantaneousXfactorInfiniteBeforeFirstRun) {
  const auto trace = makeTrace(4, {{0, 100, 4}, {5, 10, 4}});
  ScriptedPolicy policy;
  bool checked = false;
  policy.arrival = [&](Simulator& s, JobId j) {
    if (j == 0) {
      s.startJob(0);
    } else {
      EXPECT_TRUE(std::isinf(s.instantaneousXfactor(1)));
      checked = true;
    }
  };
  policy.completion = [](Simulator& s, JobId) { ScriptedPolicy::greedy(s); };
  Simulator s(trace, policy);
  s.run();
  EXPECT_TRUE(checked);
}

TEST(Simulator, StartRejectsOversizedRequest) {
  const auto trace = makeTrace(4, {{0, 10, 4}, {0, 10, 4}});
  ScriptedPolicy policy;
  policy.arrival = [](Simulator& s, JobId j) {
    if (j == 0) s.startJob(0);
    else EXPECT_THROW(s.startJob(1), InvariantError);
  };
  policy.completion = [](Simulator& s, JobId) { ScriptedPolicy::greedy(s); };
  Simulator s(trace, policy);
  s.run();
}

TEST(Simulator, DoubleStartThrows) {
  const auto trace = makeTrace(8, {{0, 10, 2}});
  ScriptedPolicy policy;
  policy.arrival = [](Simulator& s, JobId j) {
    s.startJob(j);
    EXPECT_THROW(s.startJob(j), InvariantError);
  };
  Simulator s(trace, policy);
  s.run();
}

TEST(Simulator, SuspendQueuedJobThrows) {
  const auto trace = makeTrace(8, {{0, 10, 2}});
  ScriptedPolicy policy;
  policy.arrival = [](Simulator& s, JobId j) {
    EXPECT_THROW(s.suspendJob(j), InvariantError);
    s.startJob(j);
  };
  Simulator s(trace, policy);
  s.run();
}

TEST(Simulator, ResumeOfNeverSuspendedThrows) {
  const auto trace = makeTrace(8, {{0, 10, 2}});
  ScriptedPolicy policy;
  policy.arrival = [](Simulator& s, JobId j) {
    EXPECT_THROW(s.resumeJob(j), InvariantError);
    s.startJob(j);
  };
  Simulator s(trace, policy);
  s.run();
}

TEST(Simulator, StartJobOnPreviouslySuspendedThrows) {
  const auto trace = makeTrace(8, {{0, 100, 2}});
  ScriptedPolicy policy;
  policy.arrival = [](Simulator& s, JobId j) {
    s.startJob(j);
    s.scheduleTimer(10, 1);
  };
  policy.timer = [](Simulator& s, std::uint64_t) {
    s.suspendJob(0);
    EXPECT_THROW(s.startJob(0), InvariantError);
    s.resumeJob(0);
  };
  Simulator s(trace, policy);
  s.run();
}

TEST(Simulator, TimerInThePastThrows) {
  // Two arrivals so the second fires at t=100 (traces are normalized to
  // start at 0); a timer for t=50 is then in the past.
  const auto trace = makeTrace(8, {{0, 10, 2}, {100, 10, 2}});
  ScriptedPolicy policy;
  policy.arrival = [](Simulator& s, JobId j) {
    if (j == 1) {
      EXPECT_THROW(s.scheduleTimer(50, 0), InvariantError);
    }
    s.startJob(j);
  };
  Simulator s(trace, policy);
  s.run();
}

TEST(Simulator, PolicyThatStrandsJobsTripsEndCheck) {
  const auto trace = makeTrace(8, {{0, 10, 2}});
  ScriptedPolicy policy;
  policy.arrival = [](Simulator&, JobId) { /* never start */ };
  Simulator s(trace, policy);
  EXPECT_THROW(s.run(), InvariantError);
}

TEST(Simulator, AuditPassesThroughoutRandomishSchedule) {
  const auto trace = makeTrace(
      16, {{0, 50, 4}, {5, 80, 8}, {10, 20, 4}, {15, 60, 16}, {20, 10, 2}});
  ScriptedPolicy policy;
  policy.arrival = [](Simulator& s, JobId) {
    ScriptedPolicy::greedy(s);
    s.auditState();
  };
  policy.completion = [](Simulator& s, JobId) {
    ScriptedPolicy::greedy(s);
    s.auditState();
  };
  Simulator s(trace, policy);
  s.run();
  s.auditState();
}

TEST(Simulator, BusyProcSecondsMatchesWork) {
  const auto trace = makeTrace(8, {{0, 100, 4}, {0, 200, 2}});
  ScriptedPolicy policy;
  Simulator s(trace, policy);
  s.run();
  EXPECT_DOUBLE_EQ(s.busyProcSeconds(), 100.0 * 4 + 200.0 * 2);
}

// --- overhead phases --------------------------------------------------------

TEST(SimulatorOverhead, SuspendHoldsProcsDuringDrain) {
  const auto trace = makeTrace(4, {{0, 100, 4}});
  sched::FixedOverhead overhead(/*suspend=*/20, /*resume=*/30);
  ScriptedPolicy policy;
  bool drainChecked = false;
  policy.arrival = [](Simulator& s, JobId j) {
    s.startJob(j);
    s.scheduleTimer(50, 1);
  };
  policy.timer = [](Simulator& s, std::uint64_t) {
    s.suspendJob(0);
    // Draining: processors still held, state Suspending.
    EXPECT_EQ(s.state(0), JobState::Suspending);
    EXPECT_EQ(s.freeCount(), 0u);
  };
  policy.drained = [&](Simulator& s, JobId j) {
    EXPECT_EQ(s.now(), 70);  // 50 + 20 drain
    EXPECT_EQ(s.state(j), JobState::Suspended);
    EXPECT_EQ(s.freeCount(), 4u);
    drainChecked = true;
    s.resumeJob(j);
  };
  Simulator::Config config;
  config.overhead = &overhead;
  Simulator s(trace, policy, config);
  s.run();
  EXPECT_TRUE(drainChecked);
  // Timeline: run 0-50 (50 of work), drain 50-70, resume read-back 70-100,
  // remaining 50 of work 100-150.
  EXPECT_EQ(s.exec(0).finish, 150);
  EXPECT_EQ(s.exec(0).overheadTotal(), 50);
}

TEST(SimulatorOverhead, ResumeOverheadDoesNoWork) {
  const auto trace = makeTrace(4, {{0, 100, 4}});
  sched::FixedOverhead overhead(0, 40);
  ScriptedPolicy policy;
  policy.arrival = [](Simulator& s, JobId j) {
    s.startJob(j);
    s.scheduleTimer(60, 1);
    s.scheduleTimer(80, 2);
  };
  policy.timer = [](Simulator& s, std::uint64_t tag) {
    if (tag == 1) {
      s.suspendJob(0);
      s.resumeJob(0);  // zero suspend overhead: procs free synchronously
    } else {
      // 60..80: read-back still in progress, no work done yet.
      EXPECT_EQ(s.accumulatedRun(0), 60);
    }
  };
  Simulator::Config config;
  config.overhead = &overhead;
  Simulator s(trace, policy, config);
  s.run();
  EXPECT_EQ(s.exec(0).finish, 140);  // 100 work + 40 read-back
}

TEST(SimulatorOverhead, FirstStartHasNoResumeOverhead) {
  const auto trace = makeTrace(4, {{0, 100, 4}});
  sched::FixedOverhead overhead(25, 25);
  ScriptedPolicy policy;
  Simulator::Config config;
  config.overhead = &overhead;
  Simulator s(trace, policy, config);
  s.run();
  EXPECT_EQ(s.exec(0).finish, 100);  // never suspended: no overhead at all
  EXPECT_EQ(s.exec(0).overheadTotal(), 0);
}

TEST(SimulatorOverhead, WaitAccruesDuringDrainAndSuspension) {
  const auto trace = makeTrace(4, {{0, 100, 4}});
  sched::FixedOverhead overhead(20, 0);
  ScriptedPolicy policy;
  policy.arrival = [](Simulator& s, JobId j) {
    s.startJob(j);
    s.scheduleTimer(50, 1);
  };
  policy.timer = [](Simulator& s, std::uint64_t) { s.suspendJob(0); };
  policy.drained = [](Simulator& s, JobId j) {
    EXPECT_EQ(s.accumulatedWait(j), 20);  // the drain counted as waiting
    s.resumeJob(j);
  };
  Simulator::Config config;
  config.overhead = &overhead;
  Simulator s(trace, policy, config);
  s.run();
  EXPECT_EQ(s.exec(0).finish, 120);
}

// ------------------------------------------------------------ arrival cursor
// Arrivals are served from a cursor over the trace and merged with the
// event queue at dispatch; these pin the merged order and the steppable
// contract around it.

/// One dispatched event, as an observer sees it.
using Dispatch = std::tuple<Time, EventType, std::uint64_t>;

void recordDispatches(Simulator& s, std::vector<Dispatch>& out) {
  s.observers().onEventDispatched(
      [&out](const Simulator&, const Event& e) {
        out.emplace_back(e.time, e.type, e.payload);
      });
}

TEST(SimulatorArrivalCursor, ArrivalBeatsEarlierQueuedEventsAtSameInstant) {
  // Job 0 arrives at 0, runs 100 s and arms a timer for 100; job 1 arrives
  // at 100, the instant the queued completion and timer fall due.
  const auto trace = makeTrace(4, {{0, 100, 2}, {100, 10, 2}});
  const std::vector<Dispatch> want = {
      {0, EventType::JobArrival, 0},      {100, EventType::JobArrival, 1},
      {100, EventType::JobCompletion, 0}, {100, EventType::Timer, 7},
      {110, EventType::JobCompletion, 1},
  };
  for (const bool streamed : {false, true}) {
    ScriptedPolicy policy;
    policy.arrival = [](Simulator& s, JobId j) {
      ScriptedPolicy::greedy(s);
      if (j == 0) s.scheduleTimer(100, 7);
    };
    std::optional<Simulator> s;
    std::vector<Dispatch> seen;
    if (streamed) {
      s.emplace("stream", 4, policy, Simulator::Config{});
      recordDispatches(*s, seen);
      s->submit(trace.jobs[0]);
      s->runUntil(99);  // completion and timer at 100 are queued by now
      EXPECT_EQ(s->nextEventTime(), 100);
      s->submit(trace.jobs[1]);
    } else {
      s.emplace(trace, policy);
      recordDispatches(*s, seen);
    }
    s->run();
    EXPECT_EQ(seen, want) << "streamed=" << streamed;
  }
}

TEST(SimulatorArrivalCursor, CancelBeforeArrivalDispatchesOneNoOp) {
  const auto trace = makeTrace(4, {{0, 100, 2}, {50, 10, 2}});
  for (const bool streamed : {false, true}) {
    ScriptedPolicy policy;
    std::vector<JobId> arrivalsSeenByPolicy;
    policy.arrival = [&](Simulator& s, JobId j) {
      arrivalsSeenByPolicy.push_back(j);
      ScriptedPolicy::greedy(s);
    };
    std::optional<Simulator> s;
    if (streamed) {
      s.emplace("stream", 4, policy, Simulator::Config{});
      s->submit(trace.jobs[0]);
      s->submit(trace.jobs[1]);
    } else {
      s.emplace(trace, policy);
    }
    std::vector<Dispatch> seen;
    recordDispatches(*s, seen);
    ASSERT_TRUE(s->cancelJob(1));
    s->run();
    const std::vector<Dispatch> want = {
        {0, EventType::JobArrival, 0},
        {50, EventType::JobArrival, 1},  // the no-op arrival
        {100, EventType::JobCompletion, 0},
    };
    EXPECT_EQ(seen, want) << "streamed=" << streamed;
    EXPECT_EQ(s->eventsProcessed(), want.size());
    EXPECT_EQ(s->counters().value(obs::Counter::SimEvents), want.size());
    EXPECT_EQ(arrivalsSeenByPolicy, std::vector<JobId>{0});
    EXPECT_EQ(s->state(1), JobState::Cancelled);
  }
}

TEST(SimulatorArrivalCursor, NextEventTimeIsMinOfCursorAndQueue) {
  // Arrivals at 0, 100, 200; job 0's completion (150) is queued between
  // the second and third arrivals.
  const auto trace =
      makeTrace(4, {{0, 150, 2}, {100, 10, 2}, {200, 30, 2}});
  ScriptedPolicy policy;
  Simulator s(trace, policy);
  EXPECT_EQ(s.nextEventTime(), 0);  // cursor only
  const std::vector<std::pair<Time, Time>> horizons = {
      {50, 100},   // cursor (100) before queued completion (150)
      {120, 150},  // queued completion (150) before cursor (200)
      {170, 200},  // queue empty, cursor only
      {199, 200},
      {200, 230},  // cursor exhausted, queue only
  };
  for (const auto& [horizon, next] : horizons) {
    s.runUntil(horizon);
    EXPECT_LE(s.now(), horizon);
    EXPECT_EQ(s.nextEventTime(), next) << "after runUntil(" << horizon << ")";
  }
  s.runUntil(kTimeMax);
  EXPECT_EQ(s.nextEventTime(), kNoTime);
  EXPECT_FALSE(s.step());
  s.drain();
  EXPECT_EQ(s.exec(2).finish, 230);
}

TEST(SimulatorArrivalCursor, SubmitAfterCursorRanOffTheEnd) {
  // Streamed only: a batch-built simulator refuses submit()
  // (SimulatorRows.SubmitOnBatchBuiltSimulatorThrows).
  const auto trace = makeTrace(4, {{0, 100, 2}});
  ScriptedPolicy policy;
  Simulator s("stream", 4, policy, Simulator::Config{});
  s.submit(trace.jobs[0]);
  s.runUntil(1000);
  EXPECT_EQ(s.nextEventTime(), kNoTime);
  EXPECT_EQ(s.state(0), JobState::Finished);
  workload::Job late = trace.jobs[0];
  late.submit = 2000;
  const JobId id = s.submit(late);
  EXPECT_EQ(id, 1u);
  EXPECT_EQ(s.nextEventTime(), 2000);
  ASSERT_TRUE(s.step());
  EXPECT_EQ(s.now(), 2000);
  EXPECT_EQ(s.state(id), JobState::Running);
  s.drain();
  EXPECT_EQ(s.exec(id).finish, 2100);
  EXPECT_EQ(s.eventsProcessed(), 4u);
}

// --- job rows: borrowed in a batch run, chunked in a streamed one ----------

// The batch constructors borrow the trace, so a temporary must not bind.
static_assert(std::is_constructible_v<Simulator, const workload::Trace&,
                                      SchedulingPolicy&, Simulator::Config>);
static_assert(!std::is_constructible_v<Simulator, workload::Trace&&,
                                       SchedulingPolicy&, Simulator::Config>);
static_assert(!std::is_constructible_v<Simulator, workload::Trace&&,
                                       SchedulingPolicy&>);
static_assert(!std::is_constructible_v<core::SimulationHarness,
                                       workload::Trace&&,
                                       const core::PolicySpec&,
                                       const core::SimulationOptions&>);

/// `n` one-processor, two-second jobs, one per second: none ever waits.
workload::Trace manyJobs(std::size_t n) {
  std::vector<J> jobs;
  jobs.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    jobs.push_back({static_cast<Time>(i), 2, 1});
  return makeTrace(4, jobs, "many");
}

TEST(SimulatorRows, BatchRowsAreTheTracesOwn) {
  // Three chunks, the last one partial.
  const auto trace = manyJobs(2 * ChunkTable<JobExec>::kChunkRows + 3);
  ScriptedPolicy policy;
  Simulator s(trace, policy);
  ASSERT_EQ(s.jobCount(), trace.jobs.size());
  EXPECT_EQ(s.traceName(), "many");
  for (JobId i = 0; i < trace.jobs.size(); ++i)
    ASSERT_EQ(&s.job(i), &trace.jobs[i]) << "job " << i;
  s.run();
  EXPECT_EQ(&s.job(static_cast<JobId>(trace.jobs.size() - 1)),
            &trace.jobs.back());
  EXPECT_EQ(s.unfinishedJobs(), 0u);
}

TEST(SimulatorRows, SubmitOnBatchBuiltSimulatorThrows) {
  // submit() would append into rows the caller owns; it is refused as a
  // programming error and leaves the run intact.
  const auto trace = makeTrace(4, {{0, 100, 2}});
  ScriptedPolicy policy;
  Simulator s(trace, policy);
  s.runUntil(1000);
  workload::Job late = trace.jobs[0];
  late.submit = 2000;
  EXPECT_THROW(s.submit(late), InvariantError);
  EXPECT_EQ(s.jobCount(), 1u);
  EXPECT_EQ(s.nextEventTime(), kNoTime);
  s.drain();
  EXPECT_EQ(s.exec(0).finish, 100);
}

TEST(SimulatorRows, StreamedRowsNeverMove) {
  ScriptedPolicy policy;
  Simulator s("rows", 4, policy, Simulator::Config{});
  workload::Job j;
  j.runtime = 2;
  j.estimate = 2;
  j.procs = 1;
  s.submit(j);
  const workload::Job* job0 = &s.job(0);
  const JobExec* exec0 = &s.exec(0);
  // 10,000 jobs: rows 4,096 and 8,192 each open a new chunk.
  for (Time t = 1; t < 10'000; ++t) {
    j.submit = t;
    s.submit(j);
  }
  EXPECT_EQ(&s.job(0), job0);
  EXPECT_EQ(&s.exec(0), exec0);
  ASSERT_EQ(s.jobCount(), 10'000u);
  for (JobId i = 0; i < s.jobCount(); ++i) {
    ASSERT_EQ(s.job(i).id, i);
    ASSERT_EQ(s.job(i).submit, static_cast<Time>(i));
  }
  s.run();
  EXPECT_EQ(&s.job(0), job0);
  EXPECT_EQ(&s.exec(0), exec0);
  EXPECT_EQ(s.exec(9'999).finish, 9'999 + 2);
}

// --- processor-set pool -----------------------------------------------------

// Per-job rows stay small: a job's ProcSet lives in the simulator's pool
// only while it holds or is owed processors.
static_assert(sizeof(JobExec) <= 80);
static_assert(sizeof(metrics::JobResult) <= 64);

/// Greedy dispatch that also accepts cancellation of Queued and Suspended
/// jobs.
class CancellablePolicy final : public SchedulingPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "cancellable"; }
  [[nodiscard]] bool supportsCancel() const override { return true; }
  void onJobArrival(Simulator& s, JobId) override { ScriptedPolicy::greedy(s); }
  void onJobCompletion(Simulator& s, JobId) override {
    ScriptedPolicy::greedy(s);
  }
  void onSuspendDrained(Simulator& s, JobId) override {
    ScriptedPolicy::greedy(s);
  }
};

TEST(SimulatorProcPool, TerminalJobsHoldNoSet) {
  const auto trace = makeTrace(
      4, {{0, 1000, 4}, {10, 100, 4}, {20, 100, 2}, {30, 100, 2}, {40, 5, 1}});
  CancellablePolicy policy;
  Simulator s(trace, policy);
  EXPECT_TRUE(s.procSet(0).empty());  // not started yet
  s.runUntil(10);
  ASSERT_EQ(s.state(0), JobState::Running);
  EXPECT_EQ(s.procSet(0), ProcSet::firstN(4));
  // Preempt job 0 for job 1, then withdraw it while it is owed {0-3}.
  s.suspendJob(0);
  ScriptedPolicy::greedy(s);
  ASSERT_EQ(s.state(1), JobState::Running);
  EXPECT_EQ(s.procSet(0), ProcSet::firstN(4));
  ASSERT_TRUE(s.cancelJob(0));
  EXPECT_TRUE(s.procSet(0).empty());
  EXPECT_TRUE(s.suspendedOwedSet().empty());
  s.runUntil(30);
  ASSERT_EQ(s.state(3), JobState::Queued);
  ASSERT_TRUE(s.cancelJob(3));  // never started: never had a set
  ASSERT_TRUE(s.cancelJob(4));  // not yet arrived
  s.auditState();
  s.run();
  s.auditState();
  for (JobId id = 0; id < trace.jobs.size(); ++id) {
    EXPECT_TRUE(s.state(id) == JobState::Finished ||
                s.state(id) == JobState::Cancelled);
    EXPECT_TRUE(s.procSet(id).empty()) << "job " << id;
    EXPECT_EQ(s.exec(id).procSlot, kNoProcSlot) << "job " << id;
  }
  EXPECT_EQ(s.state(0), JobState::Cancelled);
  EXPECT_EQ(s.state(2), JobState::Finished);
}

TEST(SimulatorProcPool, FinishObserverSeesFullSet) {
  // Two jobs share an 8-processor machine; a slot freed by the first
  // finisher is reused by the job that starts after it.
  const auto trace = makeTrace(8, {{0, 100, 3}, {0, 50, 5}, {60, 10, 5}});
  ScriptedPolicy policy;
  Simulator s(trace, policy);
  std::vector<ProcSet> atStart(trace.jobs.size());
  std::vector<ProcSet> atFinish(trace.jobs.size());
  s.observers().onStateChange(
      [&](const Simulator& sim, JobId id, JobState from, JobState to) {
        if (to == JobState::Running) atStart[id] = sim.procSet(id);
        if (from == JobState::Running && to == JobState::Finished)
          atFinish[id] = sim.procSet(id);
      });
  s.run();
  for (JobId id = 0; id < trace.jobs.size(); ++id) {
    EXPECT_EQ(atFinish[id].count(), trace.jobs[id].procs) << "job " << id;
    EXPECT_EQ(atFinish[id], atStart[id]) << "job " << id;
    EXPECT_TRUE(s.procSet(id).empty()) << "job " << id;
  }
  EXPECT_EQ(atFinish[1], atFinish[2]);  // {3-7} both times
}

// --- one policy object drives one run ---------------------------------------

/// Every registry policy, in `mode`, as a fresh object (TSS with flat limits,
/// so its name says TSS).
std::unique_ptr<SchedulingPolicy> registryPolicy(
    const std::string& token, sched::kernel::KernelMode mode) {
  sched::PolicySpec spec = sched::specFromToken(token);
  if (token.rfind("tss:", 0) == 0) {
    spec.ss.tssLimits.emplace();
    spec.ss.tssLimits->fill(10.0);
  }
  return sched::makePolicy(sched::withKernelMode(spec, mode));
}

constexpr sched::kernel::KernelMode kBothModes[] = {
    sched::kernel::KernelMode::Incremental,
    sched::kernel::KernelMode::Rebuild};

TEST(SimulatorPolicyBinding, SecondSimulatorOnOnePolicyThrows) {
  const auto trace = makeTrace(8, {{0, 100, 4}, {10, 50, 8}, {20, 30, 2}});
  for (const std::string& token : sched::knownPolicyTokens()) {
    for (const auto mode : kBothModes) {
      SCOPED_TRACE(token);
      const auto policy = registryPolicy(token, mode);
      Simulator first(trace, *policy);
      first.run();
      const std::string named =
          "policy '" + policy->name() + "' already drives a run";
      for (const bool batch : {true, false}) {
        try {
          if (batch)
            Simulator second(trace, *policy);
          else
            Simulator second("again", 8, *policy, {});
          ADD_FAILURE() << "a second simulator took the policy";
        } catch (const InvariantError& e) {
          EXPECT_NE(std::string(e.what()).find(named), std::string::npos)
              << e.what();
        }
      }
    }
  }
}

TEST(SimulatorPolicyBinding, RefusedInputLeavesPolicyUnbound) {
  const auto trace = makeTrace(8, {{0, 100, 4}, {10, 50, 8}, {20, 30, 2}});
  auto refused = trace;
  refused.jobs[1].procs = 9;  // wider than the machine
  for (const std::string& token : sched::knownPolicyTokens()) {
    for (const auto mode : kBothModes) {
      SCOPED_TRACE(token);
      const auto policy = registryPolicy(token, mode);
      EXPECT_THROW(Simulator(refused, *policy), InputError);
      EXPECT_THROW(Simulator("empty", 0, *policy, {}), InputError);
      Simulator s(trace, *policy);
      s.run();
      for (JobId id = 0; id < 3; ++id)
        EXPECT_EQ(s.state(id), JobState::Finished);
    }
  }
}

}  // namespace
}  // namespace sps::sim
