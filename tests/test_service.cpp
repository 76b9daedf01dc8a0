// The steppable-core / streaming-ingest suite (ctest label: service).
//
// Pins the tentpole contracts of the online scheduler mode:
//  * step()/runUntil()/drain() paused-state semantics;
//  * submit()/cancelJob() ingest verbs (ordering, rejection, lifecycle);
//  * batch vs streamed golden equivalence for every policy token under
//    both kernel modes — schedules AND rendered metrics, bit for bit;
//  * SchedulerService protocol parsing, replies, and the threaded serve()
//    driver (the lane to re-run under -DSPS_SANITIZE=thread).
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "check/check_config.hpp"
#include "check/diff_harness.hpp"
#include "check/invariants.hpp"
#include "core/scheduler_service.hpp"
#include "core/simulation.hpp"
#include "helpers.hpp"
#include "metrics/openmetrics.hpp"
#include "sched/fcfs.hpp"
#include "sched/policy_factory.hpp"
#include "util/check.hpp"
#include "workload/synthetic.hpp"

namespace sps {
namespace {

using test::J;
using test::makeTrace;

workload::Job job(Time submit, Time runtime, std::uint32_t procs,
                  Time estimate = 0) {
  workload::Job j;
  j.submit = submit;
  j.runtime = runtime;
  j.estimate = estimate == 0 ? runtime : estimate;
  j.procs = procs;
  return j;
}

// --- steppable core --------------------------------------------------------

TEST(SteppableCore, StepDispatchesOneEventAndReportsNext) {
  const auto trace = makeTrace(4, {{0, 100, 4}, {50, 10, 1}});
  sched::FcfsScheduler policy;
  sim::Simulator s(trace, policy, {});
  EXPECT_FALSE(s.drained());
  EXPECT_EQ(s.nextEventTime(), 0);
  EXPECT_TRUE(s.step());  // job 0 arrival: starts immediately
  EXPECT_EQ(s.now(), 0);
  EXPECT_EQ(s.state(0), sim::JobState::Running);
  EXPECT_EQ(s.nextEventTime(), 50);  // job 1 arrival precedes completion
  EXPECT_TRUE(s.step());
  EXPECT_EQ(s.state(1), sim::JobState::Queued);
  while (s.step()) {
  }
  EXPECT_EQ(s.nextEventTime(), kNoTime);
  EXPECT_EQ(s.unfinishedJobs(), 0u);
  EXPECT_FALSE(s.drained());  // drained only after an explicit drain()
  s.drain();
  EXPECT_TRUE(s.drained());
  EXPECT_EQ(s.exec(1).firstStart, 100);
}

TEST(SteppableCore, RunUntilPausesAtHorizonAndResumes) {
  const auto trace = makeTrace(2, {{0, 100, 2}, {10, 100, 2}, {20, 100, 2}});
  sched::FcfsScheduler policy;
  sim::Simulator s(trace, policy, {});
  s.runUntil(150);  // job0 done at 100, job1 running until 200
  EXPECT_EQ(s.state(0), sim::JobState::Finished);
  EXPECT_EQ(s.state(1), sim::JobState::Running);
  EXPECT_EQ(s.state(2), sim::JobState::Queued);
  EXPECT_LE(s.now(), 150);
  s.runUntil(150);  // idempotent at the same horizon
  EXPECT_EQ(s.state(2), sim::JobState::Queued);
  s.drain();
  EXPECT_TRUE(s.drained());
  EXPECT_EQ(s.exec(2).finish, 300);
  EXPECT_EQ(s.lastFinish(), 300);
}

TEST(SteppableCore, RunIsRunUntilPlusDrain) {
  const auto trace = makeTrace(4, {{0, 50, 2}, {5, 50, 2}, {10, 50, 4}});
  sched::FcfsScheduler a;
  sched::FcfsScheduler b;
  sim::Simulator whole(trace, a, {});
  whole.run();
  sim::Simulator pieces(trace, b, {});
  pieces.runUntil(kTimeMax);
  pieces.drain();
  for (JobId id = 0; id < trace.jobs.size(); ++id) {
    EXPECT_EQ(whole.exec(id).firstStart, pieces.exec(id).firstStart);
    EXPECT_EQ(whole.exec(id).finish, pieces.exec(id).finish);
  }
}

// --- ingest boundary -------------------------------------------------------

TEST(Ingest, SubmitAtExactStepBoundaryMatchesBatchOrder) {
  // Job 0 completes at exactly t=100; the streamed injection of job 1 with
  // submit == 100 must be enqueued before the completion dispatches (the
  // driver contract: submit everything at T before dispatching T). The
  // arrivals-first event band then fires the arrival ahead of the
  // completion, exactly as the batch run orders them.
  sched::FcfsScheduler policy;
  sim::Simulator s("boundary", 4, policy, {});
  s.submit(job(0, 100, 4));
  s.runUntil(99);
  EXPECT_EQ(s.state(0), sim::JobState::Running);
  s.submit(job(100, 50, 4));
  s.drain();
  EXPECT_EQ(s.exec(1).firstStart, 100);
  EXPECT_EQ(s.exec(1).finish, 150);
}

TEST(Ingest, OutOfOrderSubmitRejectedWithoutStateChange) {
  sched::FcfsScheduler policy;
  sim::Simulator s("order", 4, policy, {});
  s.submit(job(100, 100, 1));
  EXPECT_THROW(s.submit(job(50, 10, 1)), InputError);
  // A submit in the simulated past (the clock reached 200 when job 0
  // finished) is rejected even though it respects the stream order seen so
  // far.
  s.runUntil(250);
  ASSERT_EQ(s.now(), 200);
  EXPECT_THROW(s.submit(job(150, 10, 1)), InputError);
  EXPECT_EQ(s.jobCount(), 1u);  // the rejects left no residue
  s.submit(job(300, 10, 1));    // the stream continues fine
  s.drain();
  EXPECT_EQ(s.unfinishedJobs(), 0u);
}

// The rejection messages are pinned byte for byte: the service forwards
// them as `err submit: <message>`.
TEST(Ingest, SubmitValidatesJobShape) {
  sched::FcfsScheduler policy;
  sim::Simulator s("shape", 4, policy, {});
  const auto messageOf = [&](const workload::Job& j) -> std::string {
    try {
      s.submit(j);
    } catch (const InputError& e) {
      return e.what();
    }
    return "(accepted)";
  };
  EXPECT_EQ(messageOf(job(0, 0, 1)),
            "submit to 'shape' (job 0): runtime must be positive");
  EXPECT_EQ(messageOf(job(0, 10, 1, 5)),
            "submit to 'shape' (job 0): estimate below runtime (jobs are "
            "killed at their wall-clock limit; clamp first)");
  EXPECT_EQ(messageOf(job(0, 10, 0)),
            "submit to 'shape' (job 0): procs must be >= 1");
  EXPECT_EQ(messageOf(job(0, 10, 5)),
            "submit to 'shape' (job 0): procs exceed machine size");
  EXPECT_EQ(messageOf(job(100, 100, 1)), "(accepted)");
  EXPECT_EQ(messageOf(job(50, 10, 1)),
            "submit to 'shape' (job 1): out-of-order submit time 50 (stream "
            "is at 100)");
  s.runUntil(250);
  EXPECT_EQ(messageOf(job(-7, 10, 1)),
            "submit to 'shape' (job 1): out-of-order submit time -7 (stream "
            "is at 100)");
  EXPECT_EQ(messageOf(job(150, 10, 1)),
            "submit to 'shape' (job 1): submit time 150 in the simulated past "
            "(clock is at 200)");
}

TEST(Ingest, CancelQueuedJobReleasesItBeforeStart) {
  sched::FcfsScheduler policy;
  sim::Simulator s("cancel-queued", 4, policy, {});
  check::InvariantChecker checker{check::CheckConfig::all(1)};
  checker.arm(s, policy);
  s.submit(job(0, 100, 4));
  s.submit(job(0, 100, 4));
  s.submit(job(0, 50, 4));
  s.runUntil(10);
  EXPECT_EQ(s.state(1), sim::JobState::Queued);
  EXPECT_TRUE(s.cancelJob(1));
  EXPECT_EQ(s.state(1), sim::JobState::Cancelled);
  EXPECT_FALSE(s.cancelJob(1));  // terminal: a second cancel is a no-op
  s.drain();
  checker.finalize(s);
  // FCFS head removal unblocked job 2 into the slot job 1 vacated.
  EXPECT_EQ(s.exec(1).firstStart, kNoTime);
  EXPECT_EQ(s.exec(2).firstStart, 100);
}

TEST(Ingest, CancelRunningJobRejected) {
  sched::FcfsScheduler policy;
  sim::Simulator s("cancel-running", 4, policy, {});
  s.submit(job(0, 100, 4));
  s.runUntil(10);
  EXPECT_EQ(s.state(0), sim::JobState::Running);
  EXPECT_FALSE(s.cancelJob(0));  // a kill, not a cancel
  s.drain();
  EXPECT_EQ(s.state(0), sim::JobState::Finished);
}

TEST(Ingest, CancelNotArrivedJobWorksUnderAnyPolicy) {
  // Conservative cannot repair its reservation calendar mid-flight
  // (supportsCancel() == false), but a NotArrived job holds no policy
  // state yet — cancelling it only voids the pending arrival.
  auto spec = sched::specFromToken("conservative");
  const auto policy = core::makePolicy(spec);
  sim::Simulator s("cancel-future", 4, *policy, {});
  s.submit(job(0, 100, 4));
  s.submit(job(500, 100, 4));
  EXPECT_TRUE(s.cancelJob(1));
  EXPECT_EQ(s.state(1), sim::JobState::Cancelled);
  s.runUntil(50);
  EXPECT_EQ(s.state(0), sim::JobState::Running);
  // A QUEUED cancel is where conservative must refuse.
  s.submit(job(600, 100, 4));
  s.submit(job(600, 100, 4));
  s.runUntil(650);  // job 2 running until 700; job 3 waiting behind it
  EXPECT_EQ(s.state(3), sim::JobState::Queued);
  EXPECT_FALSE(s.cancelJob(3));
  s.drain();
  EXPECT_EQ(s.unfinishedJobs(), 0u);
}

TEST(Ingest, CancelSuspendedJobUnderSelectiveSuspension) {
  // A wide long job gets preempted by a narrow short one (SF test passes
  // once the short job's expansion factor doubles the long one's), then the
  // suspended victim is cancelled — its owed processors must be released
  // and the run must drain cleanly with the oracle armed.
  auto spec = sched::specFromToken("ss:2");
  const auto policy = core::makePolicy(spec);
  sim::Simulator s("cancel-suspended", 2, *policy, {});
  check::InvariantChecker checker{check::CheckConfig::all(1)};
  checker.arm(s, *policy);
  s.submit(job(0, 50000, 2));
  s.submit(job(10, 60, 1));
  Time cancelled = kNoTime;
  while (s.step()) {
    if (s.state(0) == sim::JobState::Suspended) {
      ASSERT_TRUE(s.cancelJob(0));
      cancelled = s.now();
      break;
    }
  }
  ASSERT_NE(cancelled, kNoTime) << "expected job 0 to be suspended";
  EXPECT_EQ(s.state(0), sim::JobState::Cancelled);
  s.drain();
  checker.finalize(s);
  EXPECT_EQ(s.state(1), sim::JobState::Finished);
}

// --- golden equivalence: batch vs streamed ---------------------------------

/// Streamed replay must be bit-identical to batch for every policy token
/// under both kernel modes. DiffHarness::diffStreamed carries the whole
/// contract: transitions, per-job exec records, and the armed oracle.
TEST(StreamedEquivalence, AllPolicyTokensBothKernelModes) {
  const check::DiffHarness harness{check::CheckConfig::all(4)};
  for (const bool overhead : {false, true}) {
    check::FuzzCase c;
    c.trace = workload::generateTrace(workload::ctcConfig(160, 11));
    c.overhead = overhead;
    for (const std::string& token : sched::knownPolicyTokens()) {
      c.policyToken = token;
      const check::DiffOutcome outcome = harness.diffStreamed(c, 99);
      EXPECT_TRUE(outcome.ok())
          << token << (overhead ? " (overhead)" : "") << ": "
          << outcome.divergence << outcome.violation;
    }
  }
}

TEST(StreamedEquivalence, PartialLastChunk) {
  // Streamed job rows fill 4,096-row chunks; one row past a chunk boundary
  // (4,097) and past two (8,193) leaves the last chunk nearly empty.
  const check::DiffHarness harness{check::CheckConfig::all(64)};
  for (const std::size_t jobs : {4'097u, 8'193u}) {
    check::FuzzCase c;
    c.trace = workload::generateTrace(workload::sdscConfig(jobs, 3));
    ASSERT_EQ(c.trace.jobs.size(), jobs);
    for (const char* token : {"easy", "ss:2"}) {
      c.policyToken = token;
      const check::DiffOutcome outcome = harness.diffStreamed(c, 99);
      EXPECT_TRUE(outcome.ok()) << token << " at " << jobs << " jobs: "
                                << outcome.divergence << outcome.violation;
    }
  }
}

TEST(StreamedEquivalence, SdscTraceThroughRunSimulationOverload) {
  // The public streaming overload (per-job minimum-lookahead pump) must
  // render the same metrics document as the batch entry point — gauges,
  // counters, and quantile summaries all equal, which implies the
  // schedules and counter streams matched exactly.
  const auto trace = workload::generateTrace(workload::sdscConfig(200, 5));
  for (const char* token : {"easy", "ss:2", "gang", "conservative"}) {
    core::PolicySpec spec = sched::specFromToken(token);
    core::SimulationOptions options;
    options.check = check::CheckConfig::all(8);
    const metrics::RunStats batch =
        core::runSimulation(trace, spec, options);
    core::TraceSource source(trace);
    const metrics::RunStats streamed =
        core::runSimulation(source, spec, options);
    EXPECT_EQ(metrics::openMetrics(batch), metrics::openMetrics(streamed))
        << token;
  }
}

// --- SchedulerService protocol --------------------------------------------

core::ServiceConfig easyService(std::uint32_t procs) {
  core::ServiceConfig cfg;
  cfg.machineProcs = procs;
  cfg.spec = sched::specFromToken("easy");
  cfg.options.check = check::CheckConfig::all(1);
  return cfg;
}

TEST(SchedulerService, ProtocolVerbsAndReplies) {
  core::SchedulerService service(easyService(8));
  EXPECT_EQ(service.processLine("submit 0 4 100 100"), "ok 0");
  EXPECT_EQ(service.processLine("submit 0 2 50 60"), "ok 1");
  EXPECT_EQ(service.processLine(""), "");           // blank: no reply
  EXPECT_EQ(service.processLine("# comment"), "");  // comment: no reply
  EXPECT_EQ(service.processLine("stats"),
            "ok now 0 events 0 submitted 2 unfinished 2 free 8");
  EXPECT_EQ(service.processLine("query 1"),
            "ok job 1 state NotArrived submit 0 start - finish -");
  EXPECT_EQ(service.processLine("submit 200 8 100 100 512"), "ok 2");
  EXPECT_EQ(service.processLine("cancel 2"), "ok cancelled 2");
  EXPECT_EQ(service.processLine("query 2"),
            "ok job 2 state Cancelled submit 200 start - finish -");
  const std::string drained = service.processLine("drain");
  EXPECT_EQ(drained.rfind("ok drained jobs 2 ", 0), 0u) << drained;
  EXPECT_TRUE(service.drained());
  EXPECT_EQ(service.submissions(), 3u);
}

TEST(SchedulerService, ErrorRepliesNeverThrow) {
  core::SchedulerService service(easyService(4));
  EXPECT_EQ(service.processLine("launch 1 2 3").rfind("err parse:", 0), 0u);
  EXPECT_EQ(service.processLine("submit nope").rfind("err submit:", 0), 0u);
  EXPECT_EQ(service.processLine("submit 0 9 10 10").rfind("err submit:", 0),
            0u);  // procs > machine
  EXPECT_EQ(service.processLine("cancel 7").rfind("err cancel:", 0), 0u);
  EXPECT_EQ(service.processLine("query 7").rfind("err query:", 0), 0u);
  ASSERT_EQ(service.processLine("submit 100 1 10 10"), "ok 0");
  EXPECT_EQ(service.processLine("submit 50 1 10 10").rfind("err submit:", 0),
            0u);  // out of order
  (void)service.processLine("drain");
  EXPECT_EQ(service.processLine("submit 500 1 10 10")
                .rfind("err submit: run already drained", 0),
            0u);
  EXPECT_EQ(service.processLine("drain").rfind("err drain:", 0), 0u);
}

// Reply text where integer formatting could drift: '-' for a kNoTime start
// or finish, 64-bit submit times near 2^62, and stats after a cancel.
TEST(SchedulerService, ReplyTextIsPinned) {
  core::SchedulerService service(easyService(4));
  EXPECT_EQ(service.processLine("submit 0 1 100 100"), "ok 0");
  EXPECT_EQ(service.processLine("submit 10 2 50 60"), "ok 1");
  EXPECT_EQ(service.processLine("submit 20 4 100 100"), "ok 2");
  EXPECT_EQ(service.processLine("stats"),
            "ok now 10 events 2 submitted 3 unfinished 3 free 1");
  EXPECT_EQ(service.processLine("cancel 2"), "ok cancelled 2");
  EXPECT_EQ(service.processLine("stats"),
            "ok now 10 events 2 submitted 3 unfinished 2 free 1");
  EXPECT_EQ(service.processLine("query 0"),
            "ok job 0 state Running submit 0 start 0 finish -");
  EXPECT_EQ(service.processLine("query 2"),
            "ok job 2 state Cancelled submit 20 start - finish -");
  EXPECT_EQ(service.processLine("submit 4611686018427387904 1 10 10"),
            "ok 3");
  EXPECT_EQ(service.processLine("query 3"),
            "ok job 3 state NotArrived submit 4611686018427387904 start - "
            "finish -");
  EXPECT_EQ(service.processLine("stats"),
            "ok now 100 events 5 submitted 4 unfinished 1 free 4");
  EXPECT_EQ(service.processLine("query 0"),
            "ok job 0 state Finished submit 0 start 0 finish 100");
  EXPECT_EQ(service.processLine("submit 4611686018427387904 1 10 10"),
            "ok 4");
  EXPECT_EQ(service.processLine("stats"),
            "ok now 100 events 5 submitted 5 unfinished 2 free 4");
}

// Lines that `istream >>` would wrap or half-parse: each gets the malformed
// reply and leaves the run exactly as it was.
TEST(SchedulerService, HostileLinesAreRejectedWithoutStateChange) {
  const std::string submitGrammar =
      "err submit: expected: submit <time> <procs> <runtime> <estimate> "
      "[memMb]";
  const std::string cancelGrammar = "err cancel: expected: cancel <id>";
  const std::string queryGrammar = "err query: expected: query <id>";
  struct Case {
    const char* line;
    std::string reply;
  };
  const std::vector<Case> cases = {
      {"cancel -4294967295", cancelGrammar},  // wrapped to id 1
      {"submit 30 1 10 10 -1", submitGrammar},  // memMb wrapped to 2^32-1
      {"submit 20 -5 10 10", submitGrammar},  // procs wrapped
      {"submit 60 1 10 10junk", submitGrammar},
      {"submit 60 1 10junk 10", submitGrammar},
      {"cancel 4294967296", cancelGrammar},
      {"query 4294967296", queryGrammar},
      {"submit 4294967296 1 10 10 4294967296", submitGrammar},
      {"submit 60 4294967296 10 10", submitGrammar},
      {"submit 9223372036854775808 1 10 10", submitGrammar},
      {"submit 60 1 10 -9223372036854775809", submitGrammar},
      {"cancel -", cancelGrammar},
      {"cancel +", cancelGrammar},
      {"submit - 1 10 10", submitGrammar},
      {"submit + 1 10 10", submitGrammar},
      {"submit +-60 1 10 10", submitGrammar},
      {"submit 60 +1 10 10", submitGrammar},  // no sign on procs
      {"submit 60 1 10 10 +0", submitGrammar},  // ... on memMb
      {"cancel +1", cancelGrammar},            // ... or on ids
      {"query -0", queryGrammar},
      {"cancel 1 1", cancelGrammar},  // trailing tokens
      {"query 0 x", queryGrammar},
      {"submit 60 1 10 10 0 0", submitGrammar},
      {"submit 60 1 10 10 # note", submitGrammar},
      {"submit 60 1 10", submitGrammar},
      {"stats now", "err stats: expected: stats"},
      {"drain now", "err drain: expected: drain"},
      {"cancel\t-1\r", cancelGrammar},
  };

  core::SchedulerService service(easyService(4));
  ASSERT_EQ(service.processLine("submit 0 1 100 100"), "ok 0");
  ASSERT_EQ(service.processLine("submit 10 1 100 100"), "ok 1");
  const std::string before = service.processLine("stats");
  for (const Case& c : cases) {
    SCOPED_TRACE(c.line);
    EXPECT_EQ(service.processLine(c.line), c.reply);
    EXPECT_EQ(service.processLine("stats"), before);
  }
  EXPECT_FALSE(service.drained());
  EXPECT_EQ(service.processLine("query 1"),
            "ok job 1 state NotArrived submit 10 start - finish -");

  // Every classic-locale whitespace character separates fields, and the
  // time fields take an explicit '+'.
  EXPECT_EQ(service.processLine("submit\t20\t1\t100\t100"), "ok 2");
  EXPECT_EQ(service.processLine("submit 30\v1\f100\r100\r"), "ok 3");
  EXPECT_EQ(service.processLine(" \tsubmit +40 1 +100 +100 0 \r"), "ok 4");
  EXPECT_EQ(service.processLine("query\v4\f"),
            "ok job 4 state NotArrived submit 40 start - finish -");
  EXPECT_EQ(service.processLine("\tstats\r"),
            "ok now 30 events 4 submitted 5 unfinished 5 free 0");
  EXPECT_EQ(service.processLine("cancel\f4\r"), "ok cancelled 4");
}

TEST(SchedulerService, ServeDrivesThreadedReaderToSameResultAsBatch) {
  // Format a synthetic trace as protocol lines, serve it through the
  // reader-thread/bounded-queue driver, and require the rendered metrics
  // to equal the batch run of the same trace — the service-level golden
  // equivalence (and the TSan target for the ingest hand-off).
  auto config = workload::sdscConfig(150, 17);
  const auto trace = workload::generateTrace(config);
  core::PolicySpec spec = sched::specFromToken("ss:2");

  std::ostringstream script;
  for (const workload::Job& j : trace.jobs)
    script << "submit " << j.submit << " " << j.procs << " " << j.runtime
           << " " << j.estimate << " " << j.memoryMb << "\n";
  script << "drain\n";

  core::ServiceConfig cfg;
  cfg.traceName = trace.name;
  cfg.machineProcs = trace.machineProcs;
  cfg.spec = spec;
  cfg.options.check = check::CheckConfig::all(8);
  core::SchedulerService service(std::move(cfg));
  std::istringstream in(script.str());
  std::ostringstream out;
  const metrics::RunStats streamed = service.serve(in, out);

  // Every submit answered ok, in order.
  std::istringstream replies(out.str());
  std::string line;
  for (JobId id = 0; id < trace.jobs.size(); ++id) {
    ASSERT_TRUE(std::getline(replies, line));
    EXPECT_EQ(line, "ok " + std::to_string(id));
  }
  ASSERT_TRUE(std::getline(replies, line));
  EXPECT_EQ(line.rfind("ok drained ", 0), 0u);

  core::SimulationOptions options;
  options.check = check::CheckConfig::all(8);
  const metrics::RunStats batch = core::runSimulation(trace, spec, options);
  EXPECT_EQ(metrics::openMetrics(batch), metrics::openMetrics(streamed));
}

TEST(SchedulerService, FinishIsImplicitAtEndOfInputAndIdempotent) {
  core::SchedulerService service(easyService(4));
  std::istringstream in("submit 0 4 100 100\nsubmit 50 2 10 10\n");
  std::ostringstream out;
  const metrics::RunStats stats = service.serve(in, out);  // no drain verb
  EXPECT_TRUE(service.drained());
  EXPECT_EQ(stats.jobs.size(), 2u);
  const metrics::RunStats again = service.finish();
  EXPECT_EQ(stats.eventsProcessed, again.eventsProcessed);
  std::string error;
  EXPECT_TRUE(metrics::validateOpenMetrics(metrics::openMetrics(stats),
                                           &error))
      << error;
}

TEST(SchedulerService, RejectsZeroProcMachine) {
  core::ServiceConfig cfg;
  cfg.machineProcs = 0;
  cfg.spec = sched::specFromToken("fcfs");
  EXPECT_THROW(core::SchedulerService service(std::move(cfg)), InputError);
}

}  // namespace
}  // namespace sps
