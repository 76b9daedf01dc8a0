// Golden-equivalence suite for the scheduling kernel (ISSUE: incremental
// scheduling kernel). Every policy runs the same seeded synthetic trace
// twice — once with KernelMode::Incremental (the kernel's amortized
// maintenance) and once with KernelMode::Rebuild (the pre-kernel,
// reconstruct-per-event behaviour kept as the reference) — and the two
// schedules must be bit-identical: the full (time, job, from, to)
// transition sequence, not just summary statistics.
//
// Labeled perf-smoke: `ctest -L perf-smoke` runs exactly this suite plus
// the small end-to-end sweep at the bottom, which is the gate the bench
// numbers in BENCH_engine.json are meaningful against.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "check/diff_harness.hpp"
#include "core/experiment.hpp"
#include "core/simulation.hpp"
#include "helpers.hpp"
#include "sched/overhead.hpp"
#include "sim/simulator.hpp"
#include "workload/estimate_model.hpp"
#include "workload/synthetic.hpp"

namespace sps {
namespace {

using sched::kernel::KernelMode;

/// One job state transition, exactly as the simulator reported it.
using Transition = std::tuple<Time, JobId, int, int>;

struct Schedule {
  std::vector<Transition> transitions;
  std::vector<Time> firstStart;
  std::vector<Time> finish;
  std::vector<std::uint32_t> suspendCount;
};

using sched::withKernelMode;

Schedule runSchedule(const workload::Trace& trace,
                     const core::PolicySpec& spec, KernelMode mode,
                     const sim::OverheadPolicy* overhead) {
  const auto policy = core::makePolicy(withKernelMode(spec, mode));
  sim::Simulator::Config config;
  config.overhead = overhead;
  sim::Simulator simulator(trace, *policy, config);
  Schedule schedule;
  simulator.observers().onStateChange(
      [&schedule](const sim::Simulator& s, JobId id, sim::JobState from,
                  sim::JobState to) {
        schedule.transitions.emplace_back(s.now(), id, static_cast<int>(from),
                                          static_cast<int>(to));
      });
  simulator.run();
  for (JobId id = 0; id < trace.jobs.size(); ++id) {
    schedule.firstStart.push_back(simulator.exec(id).firstStart);
    schedule.finish.push_back(simulator.exec(id).finish);
    schedule.suspendCount.push_back(simulator.exec(id).suspendCount);
  }
  return schedule;
}

/// Assert two schedules are identical, with a useful first-divergence
/// message rather than a dump of both transition logs.
void expectIdentical(const Schedule& a, const Schedule& b,
                     const std::string& context) {
  const std::size_t n = std::min(a.transitions.size(), b.transitions.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a.transitions[i] == b.transitions[i]) continue;
    const auto& [ta, ja, fa, sa] = a.transitions[i];
    const auto& [tb, jb, fb, sb] = b.transitions[i];
    FAIL() << context << ": schedules diverge at transition " << i
           << " — incremental (t=" << ta << " job=" << ja << " " << fa << "->"
           << sa << ") vs rebuild (t=" << tb << " job=" << jb << " " << fb
           << "->" << sb << ")";
  }
  EXPECT_EQ(a.transitions.size(), b.transitions.size()) << context;
  EXPECT_EQ(a.firstStart, b.firstStart) << context;
  EXPECT_EQ(a.finish, b.finish) << context;
  EXPECT_EQ(a.suspendCount, b.suspendCount) << context;
}

std::vector<std::pair<std::string, core::PolicySpec>> kernelPolicies() {
  std::vector<std::pair<std::string, core::PolicySpec>> specs;
  core::PolicySpec spec;

  specs.emplace_back("conservative", sched::specFromToken("conservative"));

  spec = {};
  spec.kind = core::PolicyKind::Easy;
  specs.emplace_back("easy-fcfs", spec);

  spec = {};
  spec.kind = core::PolicyKind::Easy;
  spec.easy.order = sched::QueueOrder::ShortestFirst;
  specs.emplace_back("sjf-bf", spec);

  spec = {};
  spec.kind = core::PolicyKind::DepthBackfill;
  spec.depth.depth = 2;
  specs.emplace_back("depth-2", spec);

  spec = {};
  spec.kind = core::PolicyKind::SelectiveSuspension;
  specs.emplace_back("ss", spec);

  spec = {};
  spec.kind = core::PolicyKind::SelectiveSuspension;
  spec.ss.tssOnlineMultiplier = 1.5;
  specs.emplace_back("tss-online", spec);

  spec = {};
  spec.kind = core::PolicyKind::ImmediateService;
  specs.emplace_back("is", spec);

  return specs;
}

/// Most idle jobs (Queued or Suspended) at any instant of a schedule.
std::size_t maxIdle(const Schedule& schedule) {
  const auto idle = [](int state) {
    return state == static_cast<int>(sim::JobState::Queued) ||
           state == static_cast<int>(sim::JobState::Suspended);
  };
  std::size_t now = 0;
  std::size_t most = 0;
  for (const auto& [t, id, from, to] : schedule.transitions) {
    if (idle(from)) --now;
    if (idle(to)) ++now;
    most = std::max(most, now);
  }
  return most;
}

/// Run every policy in `policies` on `trace` under both kernel modes and
/// expect identical schedules, in both estimate regimes and both overhead
/// models. Exact estimates drive the incremental kernel's on-time-completion
/// fast paths on every completion; the Modal model makes most completions
/// early, driving the full compression/rebuild path plus the mixed
/// transitions between the two. Overhead only matters to the preemptive
/// policies, but running every policy under both cost models is cheap and
/// catches accidental coupling between the ledger and the overhead path.
/// Returns the deepest idle queue seen across the runs.
std::size_t expectModesAgree(
    workload::Trace trace,
    const std::vector<std::pair<std::string, core::PolicySpec>>& policies,
    const std::string& traceLabel) {
  std::size_t deepest = 0;
  for (const bool inaccurate : {false, true}) {
    if (inaccurate) {
      workload::EstimateModelConfig model;
      model.kind = workload::EstimateModelKind::Modal;
      applyEstimates(trace, model);
    }
    const sched::DiskSwapOverhead swap(trace);
    for (const auto& [label, spec] : policies) {
      for (const sim::OverheadPolicy* overhead :
           {static_cast<const sim::OverheadPolicy*>(nullptr),
            static_cast<const sim::OverheadPolicy*>(&swap)}) {
        const Schedule inc =
            runSchedule(trace, spec, KernelMode::Incremental, overhead);
        const Schedule reb =
            runSchedule(trace, spec, KernelMode::Rebuild, overhead);
        std::ostringstream context;
        context << label << " on " << traceLabel
                << (inaccurate ? " modal-estimates" : " exact-estimates")
                << (overhead ? " +overhead" : "");
        expectIdentical(inc, reb, context.str());
        deepest = std::max(deepest, maxIdle(reb));
      }
    }
  }
  return deepest;
}

// The trace kind is a std::string, not a const char*: gtest prints the
// parameter into the listed test name, and a pointer would print as its
// run-to-run varying address.
class GoldenEquivalence : public ::testing::TestWithParam<
                              std::tuple<std::string, std::size_t>> {};

TEST_P(GoldenEquivalence, IncrementalMatchesRebuild) {
  const auto& [traceKind, jobCount] = GetParam();
  const workload::Trace trace = generateTrace(
      traceKind == "ctc" ? workload::ctcConfig(jobCount, 42)
                         : workload::sdscConfig(jobCount, 42));
  expectModesAgree(trace, kernelPolicies(),
                   traceKind + "/" + std::to_string(jobCount));
}

INSTANTIATE_TEST_SUITE_P(
    Traces, GoldenEquivalence,
    ::testing::Values(std::make_tuple(std::string("ctc"), std::size_t{800}),
                      std::make_tuple(std::string("sdsc"), std::size_t{800})),
    [](const auto& paramInfo) {
      return std::get<0>(paramInfo.param) + "_" +
             std::to_string(std::get<1>(paramInfo.param));
    });

// Deep idle queues. At preset load the traces above keep only a handful of
// jobs waiting; offered 1.3x its capacity the machine backs up by well over
// a hundred. SS and TSS-online's incremental dispatch walks then gather only
// the waiting jobs that fit the capacity free at walk start, and their
// preemption ticks serve the gate from the idle-line index and the pass
// from the victim step function, while Rebuild sorts and tests every idle
// job and every victim — this pins the two against each other where the
// filters drop most of the idle set. TSS at static limits (calibrated from
// an EASY run, as the experiments do) exercises the step function's TSS
// cut, and SS at SF 1.5 a non-default suspension factor. Prefer and Squat
// let an action raise the usable free count mid-pass (a widest-first victim
// overshoots and nothing is owed-fenced), and the migratable model sends
// suspended jobs down the fresh path, so those three pin the pass where
// its pass-start bounds are not final. IS has a single dispatch path and
// rides along as the control.
TEST(GoldenEquivalenceDeepQueue, PreemptivePoliciesMatchRebuild) {
  workload::SyntheticConfig config = workload::sdscConfig(2000, 42);
  config.offeredLoad = 1.3;
  const workload::Trace trace = generateTrace(config);
  std::vector<std::pair<std::string, core::PolicySpec>> preemptive;
  for (const auto& entry : kernelPolicies())
    if (entry.first == "ss" || entry.first == "tss-online" ||
        entry.first == "is")
      preemptive.push_back(entry);
  ASSERT_EQ(preemptive.size(), 3u);
  core::PolicySpec spec;
  spec.kind = core::PolicyKind::SelectiveSuspension;
  spec.ss.tssLimits = core::bootstrapTssLimits(trace);
  preemptive.emplace_back("tss", spec);
  spec = {};
  spec.kind = core::PolicyKind::SelectiveSuspension;
  spec.ss.suspensionFactor = 1.5;
  preemptive.emplace_back("ss:1.5", spec);
  spec = {};
  spec.kind = core::PolicyKind::SelectiveSuspension;
  spec.ss.owedProcs = sched::OwedProcsPolicy::Prefer;
  preemptive.emplace_back("ss-prefer", spec);
  spec.ss.owedProcs = sched::OwedProcsPolicy::Squat;
  preemptive.emplace_back("ss-squat", spec);
  spec = {};
  spec.kind = core::PolicyKind::SelectiveSuspension;
  spec.ss.migratableJobs = true;
  preemptive.emplace_back("ss-migratable", spec);
  const std::size_t deepest =
      expectModesAgree(trace, preemptive, "sdsc/2000@1.3");
  EXPECT_GE(deepest, 150u) << "the trace no longer backs up the queue";
}

// In the migratable model a victim the pass suspends becomes a suspended
// line on the fresh path, in a width class whose threshold may then fall
// below the gate's. The pass's merge must leave such victims out, and the
// lines the walk already passed, as the reference's pass-start snapshot
// and its single ordered walk do. The trace above misses both; a merge
// that lets either back into the walk diverges on this one.
TEST(GoldenEquivalenceDeepQueue,
     MigratableMergeLeavesOutVictimsAndPassedLines) {
  workload::SyntheticConfig config = workload::sdscConfig(1500, 1);
  config.offeredLoad = 1.3;
  const workload::Trace trace = generateTrace(config);
  core::PolicySpec spec;
  spec.kind = core::PolicyKind::SelectiveSuspension;
  spec.ss.migratableJobs = true;
  const Schedule inc =
      runSchedule(trace, spec, KernelMode::Incremental, nullptr);
  const Schedule reb = runSchedule(trace, spec, KernelMode::Rebuild, nullptr);
  expectIdentical(inc, reb, "ss-migratable on sdsc/1500@1.3 seed 1");
  EXPECT_GE(maxIdle(reb), 50u) << "the trace no longer backs up the queue";
}

// The deferred-start edge both kernel modes must agree on: C's anchor lands
// at t=10 while A and B's completion events are still pending in the same
// timestamp batch, so the profile says "start now" before the machine can.
// The startNow test (anchor == now AND physically fits) defers the start to
// the completion cascade — still within t=10.
TEST(GoldenEquivalenceEdge, DeferredStartAtAnchorEqualsNow) {
  const auto trace =
      test::makeTrace(4, {{0, 10, 2}, {0, 10, 2}, {1, 5, 4}});
  for (const KernelMode mode : {KernelMode::Incremental, KernelMode::Rebuild}) {
    const Schedule s = runSchedule(
        trace, sched::specFromToken("conservative"), mode, nullptr);
    EXPECT_EQ(s.firstStart[0], 0);
    EXPECT_EQ(s.firstStart[1], 0);
    EXPECT_EQ(s.firstStart[2], 10) << "mode " << static_cast<int>(mode);
    EXPECT_EQ(s.finish[2], 15);
  }
}

/// FNV-1a over a schedule: every transition (time, job, from, to), then
/// each job's (firstStart, finish, suspendCount), each field as eight
/// little-endian bytes.
std::uint64_t scheduleDigest(const Schedule& schedule) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (const auto& [t, id, from, to] : schedule.transitions) {
    mix(static_cast<std::uint64_t>(t));
    mix(id);
    mix(static_cast<std::uint64_t>(from));
    mix(static_cast<std::uint64_t>(to));
  }
  for (std::size_t id = 0; id < schedule.finish.size(); ++id) {
    mix(static_cast<std::uint64_t>(schedule.firstStart[id]));
    mix(static_cast<std::uint64_t>(schedule.finish[id]));
    mix(schedule.suspendCount[id]);
  }
  return h;
}

// Recorded schedules. Golden equivalence compares the two kernel modes,
// which share the placement code (which free processors a start takes), so
// a placement change moves both alike and that suite cannot see it; IS and
// gang have one mode only. These digests pin the schedules themselves:
// every registry token (TSS limits as the fuzzer resolves them), SS under
// each owed-processor discipline and in the migratable model, each with
// and without the disk-swap overhead model (claimant starts only happen
// with one). A digest moves only when a schedule does.
TEST(ScheduleDigest, MatchesRecordedSchedules) {
  struct Expected {
    const char* trace;
    const char* label;
    bool overhead;
    std::uint64_t digest;
  };
  static constexpr Expected kExpected[] = {
      {"ctc", "fcfs", false, 10167876247341469598ull},
      {"ctc", "fcfs", true, 10167876247341469598ull},
      {"ctc", "conservative", false, 939196895554464954ull},
      {"ctc", "conservative", true, 939196895554464954ull},
      {"ctc", "easy", false, 3630666699241926922ull},
      {"ctc", "easy", true, 3630666699241926922ull},
      {"ctc", "sjf", false, 6083210092390750806ull},
      {"ctc", "sjf", true, 6083210092390750806ull},
      {"ctc", "depth:2", false, 4919728568768394998ull},
      {"ctc", "depth:2", true, 4919728568768394998ull},
      {"ctc", "ss:2", false, 8760919509582779074ull},
      {"ctc", "ss:2", true, 12953264795355706858ull},
      {"ctc", "ss:1.5", false, 17331647382634083977ull},
      {"ctc", "ss:1.5", true, 813765473164240705ull},
      {"ctc", "tss:2", false, 8760919509582779074ull},
      {"ctc", "tss:2", true, 12953264795355706858ull},
      {"ctc", "tss-online:2", false, 8760919509582779074ull},
      {"ctc", "tss-online:2", true, 12953264795355706858ull},
      {"ctc", "is", false, 15539780077862495852ull},
      {"ctc", "is", true, 2760493537322063091ull},
      {"ctc", "gang", false, 6697333831919599381ull},
      {"ctc", "gang", true, 12826477171357955580ull},
      {"ctc", "ss:2 squat", false, 9552782274197791876ull},
      {"ctc", "ss:2 squat", true, 1152649935656739417ull},
      {"ctc", "ss:2 prefer", false, 1725343019187517954ull},
      {"ctc", "ss:2 prefer", true, 11899569120200134134ull},
      {"ctc", "ss:2 migratable", false, 5480785034656095498ull},
      {"ctc", "ss:2 migratable", true, 7376184555073022512ull},
      {"sdsc", "fcfs", false, 14610260309784136845ull},
      {"sdsc", "fcfs", true, 14610260309784136845ull},
      {"sdsc", "conservative", false, 14017156042290074509ull},
      {"sdsc", "conservative", true, 14017156042290074509ull},
      {"sdsc", "easy", false, 11464292782229329909ull},
      {"sdsc", "easy", true, 11464292782229329909ull},
      {"sdsc", "sjf", false, 8178403925905896157ull},
      {"sdsc", "sjf", true, 8178403925905896157ull},
      {"sdsc", "depth:2", false, 15512343560919557833ull},
      {"sdsc", "depth:2", true, 15512343560919557833ull},
      {"sdsc", "ss:2", false, 14452781575196203979ull},
      {"sdsc", "ss:2", true, 7007532575549113248ull},
      {"sdsc", "ss:1.5", false, 14449740796711855528ull},
      {"sdsc", "ss:1.5", true, 10120855162407457636ull},
      {"sdsc", "tss:2", false, 8648651096049887061ull},
      {"sdsc", "tss:2", true, 14025560373249817598ull},
      {"sdsc", "tss-online:2", false, 2895295559487748916ull},
      {"sdsc", "tss-online:2", true, 1811829624682254856ull},
      {"sdsc", "is", false, 7021497613643698369ull},
      {"sdsc", "is", true, 10588621377759650731ull},
      {"sdsc", "gang", false, 1426721219282579042ull},
      {"sdsc", "gang", true, 17960636782934964007ull},
      {"sdsc", "ss:2 squat", false, 7415956195697277359ull},
      {"sdsc", "ss:2 squat", true, 14604239849740057711ull},
      {"sdsc", "ss:2 prefer", false, 3951326145565551439ull},
      {"sdsc", "ss:2 prefer", true, 953513358880337309ull},
      {"sdsc", "ss:2 migratable", false, 4609608196049129992ull},
      {"sdsc", "ss:2 migratable", true, 17875849370145408948ull},
  };
  std::size_t next = 0;
  for (const char* traceKind : {"ctc", "sdsc"}) {
    const workload::Trace trace = generateTrace(
        std::string(traceKind) == "ctc" ? workload::ctcConfig(2000, 42)
                                        : workload::sdscConfig(2000, 42));
    std::vector<std::pair<std::string, core::PolicySpec>> specs;
    for (const std::string& token : sched::knownPolicyTokens())
      specs.emplace_back(token, check::resolveCaseSpec({token, false, trace}));
    core::PolicySpec ss = sched::specFromToken("ss:2");
    ss.ss.owedProcs = sched::OwedProcsPolicy::Squat;
    specs.emplace_back("ss:2 squat", ss);
    ss.ss.owedProcs = sched::OwedProcsPolicy::Prefer;
    specs.emplace_back("ss:2 prefer", ss);
    ss = sched::specFromToken("ss:2");
    ss.ss.migratableJobs = true;
    specs.emplace_back("ss:2 migratable", ss);
    const sched::DiskSwapOverhead swap(trace);
    for (const auto& [label, spec] : specs) {
      for (const bool overhead : {false, true}) {
        const std::uint64_t digest = scheduleDigest(
            runSchedule(trace, spec, KernelMode::Incremental,
                        overhead ? &swap : nullptr));
        std::ostringstream row;
        row << "{\"" << traceKind << "\", \"" << label << "\", "
            << (overhead ? "true" : "false") << ", " << digest << "ull},";
        if (next == std::size(kExpected)) {
          ADD_FAILURE() << "unrecorded run " << row.str();
          continue;
        }
        const Expected& want = kExpected[next++];
        EXPECT_EQ(want.trace, std::string(traceKind));
        EXPECT_EQ(want.label, label);
        EXPECT_EQ(want.overhead, overhead);
        EXPECT_EQ(want.digest, digest) << "recorded row now reads " << row.str();
      }
    }
  }
  EXPECT_EQ(next, std::size(kExpected));
}

// Small end-to-end sweep (the second half of the perf-smoke gate): every
// policy × both kernel modes completes a short SDSC run with sane metrics.
TEST(PerfSmokeSweep, AllPoliciesCompleteWithSaneStats) {
  const workload::Trace trace =
      generateTrace(workload::sdscConfig(300, 7));
  for (const auto& [label, spec] : kernelPolicies()) {
    for (const KernelMode mode :
         {KernelMode::Incremental, KernelMode::Rebuild}) {
      const metrics::RunStats stats =
          core::runSimulation(trace, withKernelMode(spec, mode));
      EXPECT_EQ(stats.jobs.size(), trace.jobs.size()) << label;
      EXPECT_GT(stats.utilization, 0.0) << label;
      EXPECT_LE(stats.utilization, 1.0) << label;
      EXPECT_GE(stats.meanBoundedSlowdown(), 1.0) << label;
      EXPECT_GT(stats.span, 0) << label;
    }
  }
}

// Work-counter guard: in KernelMode::Incremental EASY keeps its head's
// shadow between decisions and spends `extra` in O(1) on each backfill
// start, so it queries the shadow at most once per full pass — never once
// per arrival or per backfill start.
TEST(PerfSmokeWorkCounters, EasyQueriesTheShadowAtMostOncePerPass) {
  workload::SyntheticConfig config = workload::sdscConfig(4000, 5);
  config.offeredLoad = 0.9;
  const workload::Trace trace = generateTrace(config);
  for (const char* token : {"easy", "sjf"}) {
    const metrics::RunStats stats =
        core::runSimulation(trace, sched::specFromToken(token));
    const obs::Counters& c = stats.counters;
    // The guard means something only where both the arrival fast path and
    // backfill starts actually run.
    ASSERT_GT(c.value(obs::Counter::ArrivalFastPaths), 0u) << token;
    ASSERT_GT(c.value(obs::Counter::BackfillStarts), 0u) << token;
    EXPECT_LE(c.value(obs::Counter::ShadowQueries),
              c.value(obs::Counter::FullPasses))
        << token;
  }
}

// Work-counter guard: the SS tick hands its pass the idle jobs at or above
// their width class's threshold, and the pass walks only those, plus the
// lines an action's threshold fall merges in. On a deep queue under the
// default Lease the pass then dismisses at most about one candidate on the
// gain bound per gate report. A pass that re-gathers at the single
// threshold SF x the weakest running priority once it acts dismisses more
// (330,707 bound skips against 315,543 reports on this trace).
TEST(PerfSmokeWorkCounters, SsBoundSkipsStayWithinGateReports) {
  workload::SyntheticConfig config = workload::sdscConfig(16384, 5);
  config.offeredLoad = 1.3;
  const workload::Trace trace = generateTrace(config);
  const metrics::RunStats stats =
      core::runSimulation(trace, sched::specFromToken("ss:2"));
  const obs::Counters& c = stats.counters;
  ASSERT_GT(c.value(obs::Counter::Preemptions), 0u);
  ASSERT_GT(c.value(obs::Counter::GateReports), 0u);
  EXPECT_LE(c.value(obs::Counter::VictimBoundSkips),
            c.value(obs::Counter::GateReports));
}

// Work-counter guard: under local preemption the SS resume walk reads only
// the suspended jobs whose owed sets no job holds (the occupancy record's
// unheld list), since only those can fit. Nearly every one it reads then
// resumes. A walk that reads every suspended job no wider than the free
// capacity reads about 1.68M on this trace against 65,003 resumes.
TEST(PerfSmokeWorkCounters, SsResumeWalkReadsOnlyFreeSets) {
  workload::SyntheticConfig config = workload::sdscConfig(16384, 5);
  config.offeredLoad = 1.3;
  const workload::Trace trace = generateTrace(config);
  const metrics::RunStats stats =
      core::runSimulation(trace, sched::specFromToken("ss:2"));
  const obs::Counters& c = stats.counters;
  ASSERT_GT(c.value(obs::Counter::SimResumes), 0u);
  ASSERT_GT(c.value(obs::Counter::ResumeWalkReads), 0u);
  EXPECT_LE(c.value(obs::Counter::ResumeWalkReads),
            2 * c.value(obs::Counter::SimResumes));
}

}  // namespace
}  // namespace sps
