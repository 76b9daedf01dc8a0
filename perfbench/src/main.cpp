// perfbench_run — runs one workload of the repository benchmark and
// prints its metrics as the last line of standard output, one JSON object:
//
//   perfbench_run --workload easy-long --seed 1 --seconds 10 --trace 0
//
// --trace 0 times the end-to-end metrics with nothing traced. --trace 1
// makes traced runs beside untraced ones and prints the per-layer metrics;
// with --spans-out FILE it also writes the raw spans of a bounded prefix of
// each traced run as JSON lines. perfbench/run.py builds this program from
// source and runs it; perfbench/README.md defines every metric.
//
// Every run is checked. Its schedule digest must equal the digest of an
// oracle-armed run (check::CheckConfig::all()) of the same workload and
// seed, and every service reply is verified. Failures count in the
// result's `failed` and make `correct` false.
#include <sched.h>
#include <sys/resource.h>

#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "check/check_config.hpp"
#include "core/scheduler_service.hpp"
#include "core/simulation.hpp"
#include "measure.hpp"
#include "metrics/openmetrics.hpp"
#include "obs/counters.hpp"
#include "workloads.hpp"

namespace {

using namespace sps;
using perfbench::Workload;
using Clock = std::chrono::steady_clock;

/// Input traces per invocation: those of seeds kInputs * seed + i. One
/// trace at load 0.95 can hit a congested stretch that another does not;
/// averaging over several keeps one unlucky trace from moving the result,
/// so runs with different --seed agree more closely.
constexpr std::uint64_t kInputs = 5;
/// Parent spans of each traced run kept raw for --spans-out.
constexpr std::size_t kRawSpanPrefix = 2000;

double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double nsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

bool startsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

/// Operations attempted and failed. An operation is one simulation run
/// (failed when it throws, strands a job, or its digest differs from the
/// oracle-armed run's) or one protocol line (failed on a wrong reply).
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void pass() { ++attempted; }
  void fail(const std::string& why) {
    ++attempted;
    if (++failed <= 20) std::cerr << "perfbench_run: " << why << '\n';
  }
};

// --- tracing ---------------------------------------------------------------

/// Names of parent spans: a step is named by the type of the event it
/// dispatched, every other span by its public call.
enum class Span : std::uint8_t {
  Arrival,
  Completion,
  Drained,
  Timer,
  Finish,
  Submit,
  Query,
  Stats,
  Cancel,
  Drain,
};

const char* spanName(Span span) {
  switch (span) {
    case Span::Arrival: return "sched.arrival";
    case Span::Completion: return "sched.completion";
    case Span::Drained: return "sched.drained";
    case Span::Timer: return "sched.timer";
    case Span::Finish: return "core.finish";
    case Span::Submit: return "core.service.submit";
    case Span::Query: return "core.service.query";
    case Span::Stats: return "core.service.stats";
    case Span::Cancel: return "core.service.cancel";
    case Span::Drain: return "core.service.drain";
  }
  return "?";
}

bool isStep(Span span) { return span <= Span::Timer; }

Span handlerSpan(sim::EventType type) {
  switch (type) {
    case sim::EventType::JobArrival: return Span::Arrival;
    case sim::EventType::JobCompletion: return Span::Completion;
    case sim::EventType::SuspendDrained: return Span::Drained;
    case sim::EventType::Timer: return Span::Timer;
  }
  return Span::Timer;
}

/// Spans of one traced run. Each public call (step, processLine, finish)
/// is a parent span. A step has two children: its dispatch, from step
/// entry to the one onEventDispatched observer (pop plus clock advance),
/// and the handler of the event's type, from the observer to the return.
/// The run only stores three clock reads per call; they are folded into
/// per-name sketches after the traced wall time ends.
class Tracer {
 public:
  /// For SimulationOptions::instrument: installs the observer.
  std::function<void(sim::Simulator&)> instrument() {
    return [this](sim::Simulator& s) {
      s.observers().onEventDispatched(
          [this](const sim::Simulator&, const sim::Event& e) {
            observed_ = Clock::now();
            observedType_ = e.type;
          });
    };
  }

  void begin(std::size_t expectedCalls) {
    calls_.reserve(expectedCalls);
    begin_ = Clock::now();
  }
  void end() { end_ = Clock::now(); }
  [[nodiscard]] double wallSeconds() const {
    return secondsBetween(begin_, end_);
  }

  bool step(sim::Simulator& s) {
    const Clock::time_point start = Clock::now();
    if (!s.step()) return false;
    calls_.push_back(
        {start, observed_, Clock::now(), handlerSpan(observedType_)});
    return true;
  }

  template <class F>
  auto call(Span name, F&& f) {
    const Clock::time_point start = Clock::now();
    auto result = f();
    calls_.push_back({start, start, Clock::now(), name});
    return result;
  }

  /// Fold the run into `table` and return the share of the traced wall
  /// time its parent spans cover. The first kRawSpanPrefix parent spans,
  /// with their children, go to `raw` as JSON lines.
  double fold(perfbench::SpanTable& table, std::size_t run,
              std::vector<std::string>& raw) const {
    const auto rawLine = [&](std::size_t id, std::size_t parent,
                             const char* name, Clock::time_point a,
                             Clock::time_point b) {
      std::ostringstream os;
      os << "{\"run\": " << run << ", \"id\": " << id
         << ", \"parent\": " << parent << ", \"name\": \"" << name
         << "\", \"start_ns\": " << std::llround(nsBetween(begin_, a))
         << ", \"end_ns\": " << std::llround(nsBetween(begin_, b)) << "}";
      raw.push_back(os.str());
    };
    double coveredNs = 0.0;
    std::size_t id = 0;
    for (std::size_t i = 0; i < calls_.size(); ++i) {
      const Call& c = calls_[i];
      const double ns = nsBetween(c.start, c.stop);
      coveredNs += ns;
      if (isStep(c.name)) {
        table["step"].add(ns);
        table["sim.dispatch"].add(nsBetween(c.start, c.observed));
        table[spanName(c.name)].add(nsBetween(c.observed, c.stop));
      } else {
        table[spanName(c.name)].add(ns);
      }
      if (i >= kRawSpanPrefix) continue;
      const std::size_t parent = ++id;
      rawLine(parent, 0, isStep(c.name) ? "step" : spanName(c.name), c.start,
              c.stop);
      if (isStep(c.name)) {
        rawLine(++id, parent, "sim.dispatch", c.start, c.observed);
        rawLine(++id, parent, spanName(c.name), c.observed, c.stop);
      }
    }
    return coveredNs / nsBetween(begin_, end_);
  }

 private:
  struct Call {
    Clock::time_point start;
    Clock::time_point observed;
    Clock::time_point stop;
    Span name;
  };

  std::vector<Call> calls_;
  Clock::time_point begin_{};
  Clock::time_point end_{};
  Clock::time_point observed_{};
  sim::EventType observedType_ = sim::EventType::Timer;
};

// --- runs ------------------------------------------------------------------

/// Protocol tallies of one service replay.
struct ServiceCounts {
  std::uint64_t submit = 0;
  std::uint64_t query = 0;
  std::uint64_t stats = 0;
  std::uint64_t cancel = 0;
  std::uint64_t cancelRefused = 0;
};

/// One run of a workload: a batch run, or a replay through the service.
struct RunResult {
  std::uint64_t seed = 0;     ///< of the input trace
  double generateS = 0.0;     ///< workload::generateTrace
  double renderS = 0.0;       ///< protocol script (service replays)
  double buildS = 0.0;        ///< SimulationHarness or SchedulerService
  double runS = 0.0;          ///< first dispatch or line to finish() return
  /// Quarters of the arrival window (untraced runs).
  std::array<perfbench::QuarterCost, 4> quarters{};
  double openMetricsS = 0.0;  ///< metrics::openMetrics (traced runs)
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  double avgSlowdown = 0.0;
  double utilizationPct = 0.0;
  obs::Counters counters;
  std::vector<double> submitUs;  ///< per-line latency (untraced replays)
  std::vector<double> readUs;    ///< the same for query and stats lines
  ServiceCounts service;

  [[nodiscard]] double setupS() const { return generateS + renderS + buildS; }
};

void harvest(RunResult& r, const metrics::RunStats& stats,
             const Tracer* tracer) {
  if (tracer != nullptr) {
    const Clock::time_point t = Clock::now();
    const std::string exposition = metrics::openMetrics(stats);
    r.openMetricsS = secondsBetween(t, Clock::now());
  }
  r.digest = perfbench::scheduleDigest(stats.jobs);
  r.events = stats.eventsProcessed;
  r.avgSlowdown = stats.meanBoundedSlowdown();
  r.utilizationPct = 100.0 * stats.steadyUtilization;
  r.counters = stats.counters;
}

/// Ends of the four quarters of the arrival window [first, last].
std::array<Time, 4> quarterEnds(Time first, Time last) {
  std::array<Time, 4> ends{};
  for (std::size_t k = 0; k < 4; ++k)
    ends[k] = first + (last - first) * static_cast<Time>(k + 1) / 4;
  return ends;
}

RunResult runBatch(const Workload& w, std::uint64_t seed,
                   const check::CheckConfig& check, Tracer* tracer) {
  RunResult r;
  r.seed = seed;
  Clock::time_point t = Clock::now();
  const workload::Trace trace = perfbench::makeTrace(w, seed);
  r.generateS = secondsBetween(t, Clock::now());
  core::SimulationOptions options;
  options.check = check;
  if (tracer != nullptr) options.instrument = tracer->instrument();
  t = Clock::now();
  core::SimulationHarness harness(trace, perfbench::makeSpec(w), options);
  r.buildS = secondsBetween(t, Clock::now());
  sim::Simulator& sim = harness.simulator();

  metrics::RunStats stats;
  if (tracer != nullptr) {
    tracer->begin(3 * trace.jobs.size());
    while (tracer->step(sim)) {
    }
    stats = tracer->call(Span::Finish, [&] { return harness.finish(); });
    tracer->end();
    r.runS = tracer->wallSeconds();
  } else {
    // Time each quarter of the arrival window: four clock reads, no tracing.
    const std::array<Time, 4> ends =
        quarterEnds(sim.firstSubmit(), sim.lastSubmit());
    const Clock::time_point start = Clock::now();
    Clock::time_point mark = start;
    for (std::size_t k = 0; k < 4; ++k) {
      const std::uint64_t before = sim.eventsProcessed();
      sim.runUntil(ends[k]);
      const Clock::time_point now = Clock::now();
      r.quarters[k] = {secondsBetween(mark, now),
                       sim.eventsProcessed() - before};
      mark = now;
    }
    stats = harness.finish();
    r.runS = secondsBetween(start, Clock::now());
  }
  harvest(r, stats, tracer);
  return r;
}

enum class Verb : std::uint8_t { Submit, Query, Stats, Cancel, Drain, Other };

Verb verbOf(std::string_view line) {
  if (startsWith(line, "submit ")) return Verb::Submit;
  if (startsWith(line, "query ")) return Verb::Query;
  if (startsWith(line, "stats")) return Verb::Stats;
  if (startsWith(line, "cancel ")) return Verb::Cancel;
  if (startsWith(line, "drain")) return Verb::Drain;
  return Verb::Other;
}

Span lineSpan(Verb verb) {
  switch (verb) {
    case Verb::Submit: return Span::Submit;
    case Verb::Query: return Span::Query;
    case Verb::Stats: return Span::Stats;
    case Verb::Cancel: return Span::Cancel;
    case Verb::Drain:
    case Verb::Other: break;
  }
  return Span::Drain;
}

/// The time field of a `submit <time> ...` line.
Time submitTime(std::string_view line) {
  Time t = 0;
  std::from_chars(line.data() + 7, line.data() + line.size(), t);
  return t;
}

/// Checks one reply the way tools/sps_service_load does.
bool replyOk(Verb verb, std::string_view reply, ServiceCounts& counts) {
  switch (verb) {
    case Verb::Submit:
      // Streamed ids are dense, so the expected reply is exact.
      if (reply != "ok " + std::to_string(counts.submit)) return false;
      ++counts.submit;
      return true;
    case Verb::Query:
      ++counts.query;
      return startsWith(reply, "ok job ");
    case Verb::Stats:
      ++counts.stats;
      return startsWith(reply, "ok now ");
    case Verb::Cancel:
      ++counts.cancel;
      if (startsWith(reply, "ok cancelled ")) return true;
      // A job that already started or finished refuses: expected traffic.
      if (!startsWith(reply, "err cancel: ")) return false;
      ++counts.cancelRefused;
      return true;
    case Verb::Drain:
      return startsWith(reply, "ok drained ");
    case Verb::Other:
      break;
  }
  return false;
}

/// Replays the workload's stream through SchedulerService::processLine as
/// a closed-loop client: the next line goes only after the reply.
RunResult runService(const Workload& w, std::uint64_t seed,
                     const check::CheckConfig& check, Tracer* tracer,
                     Tally& tally) {
  RunResult r;
  r.seed = seed;
  Clock::time_point t = Clock::now();
  const workload::Trace trace = perfbench::makeTrace(w, seed);
  r.generateS = secondsBetween(t, Clock::now());
  t = Clock::now();
  const std::string script = perfbench::renderScript(trace, w.mix);
  r.renderS = secondsBetween(t, Clock::now());
  t = Clock::now();
  core::ServiceConfig config;
  config.traceName = trace.name;
  config.machineProcs = trace.machineProcs;
  config.spec = perfbench::makeSpec(w);
  config.options.check = check;
  if (tracer != nullptr) config.options.instrument = tracer->instrument();
  core::SchedulerService service(std::move(config));
  r.buildS = secondsBetween(t, Clock::now());

  sim::Simulator& sim = service.simulator();
  const std::array<Time, 4> ends =
      quarterEnds(trace.jobs.front().submit, trace.jobs.back().submit);
  std::size_t quarter = 0;
  r.submitUs.reserve(trace.jobs.size());
  if (tracer != nullptr) tracer->begin(4 * trace.jobs.size());
  const Clock::time_point start = Clock::now();
  Clock::time_point mark = start;
  std::uint64_t markEvents = 0;
  const auto closeQuarter = [&] {
    const Clock::time_point now = Clock::now();
    r.quarters[quarter++] = {secondsBetween(mark, now),
                             sim.eventsProcessed() - markEvents};
    mark = now;
    markEvents = sim.eventsProcessed();
  };

  std::string_view rest = script;
  while (!rest.empty()) {
    const std::size_t eol = rest.find('\n');
    const std::string_view line = rest.substr(0, eol);
    rest = eol == std::string_view::npos ? std::string_view{}
                                         : rest.substr(eol + 1);
    const Verb verb = verbOf(line);
    const Time at = verb == Verb::Submit ? submitTime(line) : kTimeMax;
    std::string reply;
    if (tracer == nullptr) {
      // A quarter of the arrival window closes before the first line past
      // its end; drain closes the last.
      while (quarter < 3 && verb == Verb::Submit && at > ends[quarter])
        closeQuarter();
      while (quarter < 4 && verb == Verb::Drain) closeQuarter();
      const Clock::time_point a = Clock::now();
      reply = service.processLine(line);
      const double us = nsBetween(a, Clock::now()) / 1000.0;
      if (verb == Verb::Submit) r.submitUs.push_back(us);
      if (verb == Verb::Query || verb == Verb::Stats) r.readUs.push_back(us);
    } else {
      if (verb == Verb::Submit || verb == Verb::Drain) {
        // Advance as processLine would (runUntil(at - 1) before a submit,
        // everything before drain), one traced step at a time; processLine
        // then finds nothing left to dispatch.
        const Time horizon = verb == Verb::Drain ? kTimeMax : at - 1;
        while (sim.nextEventTime() != kNoTime &&
               sim.nextEventTime() <= horizon)
          tracer->step(sim);
      }
      reply = tracer->call(lineSpan(verb),
                           [&] { return service.processLine(line); });
    }
    if (replyOk(verb, reply, r.service))
      tally.pass();
    else
      tally.fail("line '" + std::string(line) + "' got '" + reply + "'");
  }
  if (tracer != nullptr) {
    tracer->end();
    r.runS = tracer->wallSeconds();
  } else {
    r.runS = secondsBetween(start, Clock::now());
  }
  harvest(r, service.finish(), tracer);
  return r;
}

RunResult runWorkload(const Workload& w, std::uint64_t seed,
                      const check::CheckConfig& check, Tracer* tracer,
                      Tally& tally) {
  return w.service ? runService(w, seed, check, tracer, tally)
                   : runBatch(w, seed, check, tracer);
}

/// A run that throws (an armed oracle firing, a stranded job) is one
/// failed operation.
template <class F>
std::optional<RunResult> attempt(Tally& tally, const std::string& what,
                                 F&& run) {
  try {
    return run();
  } catch (const std::exception& e) {
    tally.fail(what + " threw: " + e.what());
    return std::nullopt;
  }
}

/// Oracle-armed runs, one per input trace.
class Oracles {
 public:
  /// Runs the oracle-armed run of the trace of `seed`; false if it failed.
  bool arm(const Workload& w, std::uint64_t seed, Tally& tally) {
    std::optional<RunResult> oracle =
        attempt(tally, "oracle-armed run", [&] {
          return runWorkload(w, seed, check::CheckConfig::all(), nullptr,
                             tally);
        });
    if (!oracle) return false;
    tally.pass();
    runs_.emplace(seed, std::move(*oracle));
    return true;
  }

  [[nodiscard]] const RunResult* find(std::uint64_t seed) const {
    const auto it = runs_.find(seed);
    return it == runs_.end() ? nullptr : &it->second;
  }

  /// One operation per run: its digest must equal that of the oracle-armed
  /// run of the same trace.
  void check(Tally& tally, const std::vector<RunResult>& runs,
             const std::string& what) const {
    for (const RunResult& r : runs) {
      const RunResult* oracle = find(r.seed);
      if (oracle == nullptr)
        tally.fail(what + ": no oracle-armed digest to compare with");
      else if (r.digest != oracle->digest)
        tally.fail(what + ": schedule digest differs from the oracle-armed run");
      else
        tally.pass();
    }
  }

 private:
  std::map<std::uint64_t, RunResult> runs_;
};

// --- metrics ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Mean over input traces of the mean over each trace's repetitions, so
/// every input weighs the same however often it ran. Repetitions are
/// averaged, not their median taken: on a shared host a repetition runs
/// either at full speed or markedly slower, and a median over such a
/// two-mode sample jumps between the modes from run to run.
template <class Get>
double meanOf(const std::vector<RunResult>& runs, Get get) {
  std::map<std::uint64_t, std::pair<double, double>> byInput;  // sum, count
  for (const RunResult& r : runs) {
    auto& [sum, count] = byInput[r.seed];
    sum += get(r);
    count += 1.0;
  }
  double total = 0.0;
  for (const auto& [input, acc] : byInput) total += acc.first / acc.second;
  return total / static_cast<double>(byInput.size());
}

/// Median over all runs, whatever their input.
template <class Get>
double medianOf(const std::vector<RunResult>& runs, Get get) {
  std::vector<double> values;
  values.reserve(runs.size());
  for (const RunResult& r : runs) values.push_back(get(r));
  return perfbench::percentile(std::move(values), 50.0);
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Moves the process to the next CPU it may run on before each repetition.
/// On a shared host one CPU can run far slower than the others for minutes
/// (a busy neighbour on its core); a process that stays where the kernel
/// put it would report that CPU's speed, and the mean over repetitions
/// spread evenly across the CPUs does not depend on where it started.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
  }

  void next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    // Failing to move only loses the spread; the run is still valid.
    (void)sched_setaffinity(0, sizeof one, &one);
  }

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

Clock::time_point deadlineAfter(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

std::map<std::string, std::uint64_t> counterMap(const obs::Counters& c) {
  std::map<std::string, std::uint64_t> byName;
  for (std::size_t i = 0; i < obs::kCounterCount; ++i) {
    const auto counter = static_cast<obs::Counter>(i);
    byName[obs::counterName(counter)] = c.value(counter);
  }
  return byName;
}

/// Kernel and policy counters, reported under their obs::counterName.
constexpr const char* kCounterNames[] = {
    "sim.transitions",
    "sim.suspensions",
    "kernel.ledger.addBusy",
    "kernel.ledger.removeBusy",
    "kernel.ledger.shiftOrigins",
    "kernel.ledger.rebuilds",
    "kernel.ledger.reservationsAdded",
    "kernel.ledger.reservationsRemoved",
    "kernel.index.hits",
    "kernel.index.misses",
    "kernel.index.seededSorts",
    "kernel.index.fullSorts",
    "kernel.victim.inserts",
    "kernel.victim.removes",
    "kernel.victim.rangeQueries",
    "kernel.victim.boundSkips",
    "kernel.engine.anchorQueries",
    "kernel.engine.shadowQueries",
    "kernel.engine.backfillTests",
    "policy.backfillStarts",
    "policy.backfillRejects",
    "policy.arrivalFastPaths",
    "policy.completionFastPaths",
    "policy.fullPasses",
    "policy.fenceScans",
    "policy.victimTests",
    "policy.preemptions",
    "policy.passSkips",
    "policy.dispatchSkips",
};

void endToEnd(const Workload& w, std::uint64_t seed, double seconds,
              Tally& tally, Metrics& out) {
  // Timed runs cycle through the input traces, each followed for a batch
  // workload by a service replay, and fill the window: the host's speed
  // drifts over seconds, and every mean should sample all of it. A batch
  // workload moves to the next CPU between its run and its replay, so the
  // next set-up starts on a CPU that has been running, not right after a
  // move.
  std::vector<RunResult> runs;
  std::vector<RunResult> replays;
  double rssMb = 0.0;
  CpuRotation cpus;
  const Clock::time_point deadline = deadlineAfter(seconds);
  Clock::duration last{};  // of the latest run and replay
  for (std::uint64_t i = 0; i < kInputs || Clock::now() + last <= deadline;
       ++i) {
    const Clock::time_point start = Clock::now();
    const std::uint64_t input = kInputs * seed + i % kInputs;
    if (w.service) cpus.next();
    std::optional<RunResult> r = attempt(tally, "timed run", [&] {
      return runWorkload(w, input, {}, nullptr, tally);
    });
    if (!r) return;
    runs.push_back(std::move(*r));
    // The high-water mark of the timed run alone, before any replay.
    if (runs.size() == 1) rssMb = peakRssMb();
    if (!w.service) {
      cpus.next();
      std::optional<RunResult> replay = attempt(tally, "service replay", [&] {
        return runService(w, input, {}, nullptr, tally);
      });
      if (!replay) return;
      replays.push_back(std::move(*replay));
    }
    last = Clock::now() - start;
  }
  Oracles oracles;
  for (std::uint64_t i = 0; i < kInputs; ++i)
    oracles.arm(w, kInputs * seed + i, tally);
  oracles.check(tally, runs, "timed run");
  oracles.check(tally, replays, "service replay");

  // Latency percentiles are taken per replay and averaged like the other
  // timings. Over the lines of all replays pooled, a percentile that falls
  // between the latencies of fast and slow repetitions jumps from run to
  // run; easy-long's read_us_p50 spread over a third of its median.
  const std::vector<RunResult>& latency = w.service ? runs : replays;
  const auto pct = [&](std::vector<double> RunResult::*samples, double p) {
    return meanOf(latency, [&](const RunResult& r) {
      return perfbench::percentile(r.*samples, p);
    });
  };
  // Every repetition sets up once; setup_s is the median of those set-ups,
  // so one set-up that a busy neighbour slowed does not move it.
  out.push_back({"setup_s",
                 medianOf(runs, [](const RunResult& r) { return r.setupS(); }),
                 "s"});
  out.push_back(
      {"run_s", meanOf(runs, [](const RunResult& r) { return r.runS; }), "s"});
  out.push_back({"cost_growth", meanOf(runs, [](const RunResult& r) {
                   return perfbench::costGrowth(r.quarters);
                 }),
                 "ratio"});
  out.push_back({"peak_rss_mb", rssMb, "MB"});
  out.push_back({"submit_us_p50", pct(&RunResult::submitUs, 50.0), "us"});
  out.push_back({"submit_us_p999", pct(&RunResult::submitUs, 99.9), "us"});
  out.push_back({"read_us_p50", pct(&RunResult::readUs, 50.0), "us"});
  out.push_back({"read_us_p99", pct(&RunResult::readUs, 99.0), "us"});
  out.push_back(
      {"sim_avg_slowdown",
       meanOf(runs, [](const RunResult& r) { return r.avgSlowdown; }),
       "ratio"});
  out.push_back(
      {"sim_utilization_pct",
       meanOf(runs, [](const RunResult& r) { return r.utilizationPct; }),
       "%"});
}

const perfbench::SpanStats& spanOf(const perfbench::SpanTable& table,
                                   const std::string& name) {
  static const perfbench::SpanStats kNone;
  const auto it = table.find(name);
  return it == table.end() ? kNone : it->second;
}

void perLayer(const Workload& w, std::uint64_t seed, double seconds,
              Tally& tally, Metrics& out, std::vector<std::string>& raw) {
  // The layers are split on the first input trace only; counters and
  // spans are per run of it.
  const std::uint64_t input = kInputs * seed;
  std::vector<RunResult> plain;
  std::vector<RunResult> traced;
  perfbench::SpanTable spans;
  double coveredS = 0.0;
  CpuRotation cpus;
  const Clock::time_point deadline = deadlineAfter(seconds);
  while (traced.empty() || Clock::now() < deadline) {
    cpus.next();
    std::optional<RunResult> p = attempt(tally, "untraced run", [&] {
      return runWorkload(w, input, {}, nullptr, tally);
    });
    if (!p) return;
    plain.push_back(std::move(*p));
    Tracer tracer;
    std::optional<RunResult> t = attempt(tally, "traced run", [&] {
      return runWorkload(w, input, {}, &tracer, tally);
    });
    if (!t) return;
    coveredS += tracer.fold(spans, traced.size(), raw) * t->runS;
    traced.push_back(std::move(*t));
  }
  Oracles oracles;
  oracles.arm(w, input, tally);
  oracles.check(tally, plain, "untraced run");
  oracles.check(tally, traced, "traced run");
  const RunResult* oracle = oracles.find(input);

  // The service layer: service-mix's own traced replays, or for a batch
  // workload one traced replay of its stream.
  std::vector<RunResult> replays;
  perfbench::SpanTable replaySpans;
  if (!w.service) {
    Tracer tracer;
    std::optional<RunResult> replay = attempt(tally, "service replay", [&] {
      return runService(w, input, {}, &tracer, tally);
    });
    if (!replay) return;
    tracer.fold(replaySpans, traced.size(), raw);
    replays.push_back(std::move(*replay));
    oracles.check(tally, replays, "service replay");
  }
  const std::vector<RunResult>& service = w.service ? traced : replays;
  const perfbench::SpanTable& serviceSpans = w.service ? spans : replaySpans;

  const auto add = [&out](std::string name, double value, const char* unit) {
    out.push_back({std::move(name), value, unit});
  };
  const auto n = static_cast<double>(traced.size());
  add("workload.generate_s",
      meanOf(plain, [](const RunResult& r) { return r.generateS; }), "s");
  add("core.harness_build_s",
      meanOf(plain, [](const RunResult& r) { return r.buildS; }), "s");
  add("core.service.render_s",
      meanOf(service, [](const RunResult& r) { return r.renderS; }), "s");
  // In service-mix, finish() runs inside the drain line.
  const perfbench::SpanStats& finish =
      spanOf(spans, w.service ? "core.service.drain" : "core.finish");
  add("core.finish_s", finish.totalNs / 1e9 / n, "s");
  const perfbench::SpanStats& dispatch = spanOf(spans, "sim.dispatch");
  add("sim.dispatch_s", dispatch.totalNs / 1e9 / n, "s");
  add("sim.dispatch_ns_p50", dispatch.quantileNs(0.50), "ns");
  add("sim.dispatch_ns_p99", dispatch.quantileNs(0.99), "ns");
  for (const std::string type : {"arrival", "completion", "timer"}) {
    const perfbench::SpanStats& handler = spanOf(spans, "sched." + type);
    add("sim.events." + type, static_cast<double>(handler.count) / n,
        "count");
    add("sched." + type + "_s", handler.totalNs / 1e9 / n, "s");
    add("sched." + type + "_ns_p50", handler.quantileNs(0.50), "ns");
    add("sched." + type + "_ns_p99", handler.quantileNs(0.99), "ns");
  }
  // The bases of cost_growth, so a change in either quarter stays visible.
  add("cost.first_quarter_ns_per_event", meanOf(plain, [](const RunResult& r) {
        return r.quarters[0].nsPerEvent();
      }),
      "ns");
  add("cost.last_quarter_ns_per_event", meanOf(plain, [](const RunResult& r) {
        return r.quarters[3].nsPerEvent();
      }),
      "ns");

  std::map<std::string, std::uint64_t> counters =
      counterMap(plain.front().counters);
  for (const char* name : kCounterNames)
    add(name, static_cast<double>(counters[name]), "count");
  add("kernel.index.hit_ratio",
      perfbench::yieldRatio(counters["kernel.index.hits"],
                            counters["kernel.index.hits"] +
                                counters["kernel.index.misses"]),
      "ratio");
  add("policy.victim_yield",
      perfbench::yieldRatio(counters["policy.preemptions"],
                            counters["policy.victimTests"]),
      "ratio");
  add("policy.backfill_yield",
      perfbench::yieldRatio(counters["policy.backfillStarts"],
                            counters["policy.backfillStarts"] +
                                counters["policy.backfillRejects"]),
      "ratio");

  const ServiceCounts& lines = service.front().service;
  add("core.service.submit", static_cast<double>(lines.submit), "count");
  add("core.service.query", static_cast<double>(lines.query), "count");
  add("core.service.stats", static_cast<double>(lines.stats), "count");
  add("core.service.cancel", static_cast<double>(lines.cancel), "count");
  add("core.service.cancel_refused", static_cast<double>(lines.cancelRefused),
      "count");
  add("core.service.events_per_submit",
      perfbench::yieldRatio(service.front().events, lines.submit), "ratio");
  double lineNs = 0.0;
  for (const auto& [name, stats] : serviceSpans)
    if (startsWith(name, "core.service.")) lineNs += stats.totalNs;
  add("core.service.line_s",
      lineNs / 1e9 / static_cast<double>(service.size()), "s");

  add("metrics.openmetrics_s",
      meanOf(traced, [](const RunResult& r) { return r.openMetricsS; }),
      "s");
  if (oracle != nullptr) {
    std::map<std::string, std::uint64_t> audits =
        counterMap(oracle->counters);
    add("check.armed_run_s", oracle->runS, "s");
    add("check.transitionAudits",
        static_cast<double>(audits["check.transitionAudits"]), "count");
    add("check.epochAudits", static_cast<double>(audits["check.epochAudits"]),
        "count");
  }
  double tracedS = 0.0;
  for (const RunResult& r : traced) tracedS += r.runS;
  add("trace.overhead_ratio",
      meanOf(traced, [](const RunResult& r) { return r.runS; }) /
          meanOf(plain, [](const RunResult& r) { return r.runS; }),
      "ratio");
  add("trace.span_coverage", coveredS / tracedS, "ratio");
}

void printResult(Tally& tally, const Metrics& metrics) {
  std::ostringstream body;
  body << std::setprecision(17);
  const char* separator = "";
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      tally.fail("metric " + m.name + " is not a finite number");
      continue;
    }
    body << separator << '"' << m.name << "\": {\"value\": " << m.value
         << ", \"unit\": \"" << m.unit << "\"}";
    separator = ", ";
  }
  const bool correct = tally.failed == 0 && tally.attempted > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << tally.attempted
            << ", \"failed\": " << tally.failed << ", \"metrics\": {"
            << body.str() << "}}" << std::endl;
}

int usage(const std::string& why) {
  std::cerr << "perfbench_run: " << why
            << "\nusage: perfbench_run --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans-out FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string spansOut;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload")
        workload = value;
      else if (flag == "--seed")
        seed = std::stoull(value);
      else if (flag == "--seconds")
        seconds = std::stod(value);
      else if (flag == "--trace")
        trace = std::stoi(value);
      else if (flag == "--spans-out")
        spansOut = value;
      else
        return usage("unknown flag " + flag);
    } catch (const std::exception&) {
      return usage("bad value for " + flag + ": '" + value + "'");
    }
  }
  const Workload* w = perfbench::findWorkload(workload);
  if (w == nullptr) return usage("unknown workload '" + workload + "'");
  if (trace != 0 && trace != 1) return usage("--trace must be 0 or 1");
  if (!(seconds > 0.0)) return usage("--seconds must be positive");

  Tally tally;
  Metrics metrics;
  std::vector<std::string> raw;
  try {
    if (trace == 0)
      endToEnd(*w, seed, seconds, tally, metrics);
    else
      perLayer(*w, seed, seconds, tally, metrics, raw);
  } catch (const std::exception& e) {
    tally.fail(std::string("benchmark threw: ") + e.what());
  }
  if (trace == 1)
    metrics.push_back(
        {"error_rate", perfbench::yieldRatio(tally.failed, tally.attempted),
         "ratio"});
  if (!spansOut.empty()) {
    std::ofstream os(spansOut);
    for (const std::string& line : raw) os << line << '\n';
    if (!os) std::cerr << "perfbench_run: cannot write " << spansOut << '\n';
  }
  printResult(tally, metrics);
  return 0;
}
