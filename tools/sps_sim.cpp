// sps_sim — command-line driver for the scheduling simulator.
//
// Subcommands (run is the default, so flag-only invocations keep working):
//
//   sps_sim run --preset sdsc --policy ss --sf 2
//   sps_sim run --swf CTC-SP2-1996-3.1-cln.swf --procs 430 --policy tss
//   sps_sim run --preset ctc --jobs 500 --trace run.json
//   sps_sim compare --preset sdsc --threads 8 --json
//   sps_sim compare --set classic --preset kth
//   sps_sim sweep --preset ctc --factors 1.0,1.1,1.2,1.3
//   sps_sim replicate --preset sdsc --seeds 5
//
// Everything is deterministic in --seed (independent of --threads).
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "check/check_config.hpp"
#include "core/cli_config.hpp"
#include "core/experiment.hpp"
#include "core/figures.hpp"
#include "core/progress.hpp"
#include "core/replicate.hpp"
#include "core/runner.hpp"
#include "core/scheduler_service.hpp"
#include "core/simulation.hpp"
#include "metrics/json.hpp"
#include "metrics/openmetrics.hpp"
#include "metrics/report.hpp"
#include "obs/trace_sink.hpp"
#include "sched/overhead.hpp"
#include "util/log.hpp"
#include "util/table.hpp"
#include "workload/category.hpp"
#include "workload/estimate_model.hpp"
#include "workload/summary.hpp"
#include "workload/swf.hpp"
#include "workload/synthetic.hpp"
#include "workload/transforms.hpp"

namespace {

using namespace sps;

struct CliOptions {
  // Workload
  std::string swfFile;
  std::uint32_t procs = 0;
  std::string preset = "sdsc";
  std::size_t jobs = 10000;
  std::uint64_t seed = 42;
  std::optional<double> load;
  double loadFactor = 1.0;
  std::string estimates = "accurate";
  // Scheduler
  std::string policy = "ss";
  double sf = 2.0;
  bool overhead = false;
  std::size_t gangSlots = 4;
  Time gangQuantum = 600;
  std::size_t depth = 2;
  // Batch execution
  std::string set = "paper";
  std::size_t threads = 0;
  std::string factors = "1.0,1.1,1.2,1.3";
  std::size_t seeds = 5;
  // Observability
  std::string traceFile;
  std::string traceFormat = "chrome";
  bool counters = false;
  bool verbose = false;
  bool check = false;  ///< arm the sps::check invariant oracle
  std::size_t checkStride = 16;
  bool timeline = false;  ///< sample sim-clock series into RunStats/trace
  Time timelineStride = 0;  ///< 0 = auto (horizon-scaled default stride)
  bool progress = false;  ///< live batch progress line on stderr
  // Output
  std::string metricsOut;  ///< OpenMetrics exposition file
  bool json = false;
  bool csv = false;
  bool worst = false;
  bool summaryOnly = false;
};

[[noreturn]] void fail(const std::string& message) {
  std::cerr << "sps_sim: " << message << "\n(--help for usage)\n";
  std::exit(2);
}

void addWorkloadFlags(core::CliConfig& cli, CliOptions& opt) {
  cli.section("Workload (choose one)");
  cli.option("--swf", &opt.swfFile, "FILE",
             "Standard Workload Format log (requires --procs)");
  cli.option("--procs", &opt.procs, "N",
             "machine size: required with --swf; with a preset, re-targets "
             "the synthetic workload at an N-processor machine (width bands "
             "scale proportionally)");
  cli.option("--preset", &opt.preset, "ctc|sdsc|kth",
             "calibrated synthetic workload (default: sdsc)");
  cli.option("--jobs", &opt.jobs, "N", "synthetic job count (default: 10000)");
  cli.option("--seed", &opt.seed, "S", "RNG seed (default: 42)");
  cli.option("--load", &opt.load, "F",
             "offered-load override (default: preset)");
  cli.option("--load-factor", &opt.loadFactor, "F",
             "divide arrival times by F (Section VI)");
  cli.option("--estimates", &opt.estimates, "MODEL",
             "accurate | modal | uniform (Section V)");
}

void addObsFlags(core::CliConfig& cli, CliOptions& opt) {
  cli.section("Observability");
  cli.option("--trace", &opt.traceFile, "FILE",
             "write a structured event trace (open chrome format in "
             "Perfetto)");
  cli.option("--trace-format", &opt.traceFormat, "chrome|jsonl",
             "trace file format (default: chrome)");
  cli.flag("--counters", &opt.counters,
           "print the obs counter table after the run");
  cli.flag("--verbose", &opt.verbose, "log at Info level");
  cli.flag("--check", &opt.check,
           "arm the sps::check invariant oracle (capacity, conservation, "
           "guarantees, TSS bound, ledger audits); a violation aborts the "
           "run with an InvariantError");
  cli.option("--check-stride", &opt.checkStride, "N",
             "run the sampled audits every N events (default: 16)");
  cli.flag("--timeline", &opt.timeline,
           "sample sim-clock series (queue depth, utilization, backlog) "
           "into the metrics output; with --trace also emits Perfetto "
           "counter tracks");
  cli.option("--timeline-stride", &opt.timelineStride, "SEC",
             "sim-seconds between timeline samples (default: auto — 60 "
             "doubled until the trace horizon fits the sample cap)");
}

void addOutputFlags(core::CliConfig& cli, CliOptions& opt) {
  cli.section("Output");
  cli.flag("--json", &opt.json, "machine-readable RunResult JSON on stdout");
  cli.flag("--csv", &opt.csv, "CSV tables instead of aligned ASCII");
  cli.flag("--summary-only", &opt.summaryOnly, "one-line summary, no grids");
  cli.option("--metrics-out", &opt.metricsOut, "FILE",
             "write an OpenMetrics text exposition of the run(s)");
}

void addBatchFlags(core::CliConfig& cli, CliOptions& opt) {
  cli.section("Batch execution");
  cli.option("--set", &opt.set, "NAME",
             "scheme set: paper (SS 1.5/2/5 + NS + IS) | tss | classic "
             "(every scheduler) (default: paper)");
  cli.option("--threads", &opt.threads, "N",
             "worker threads (0 = all hardware threads)");
  cli.flag("--overhead", &opt.overhead,
           "2 MB/s disk-swap suspension cost (Section V-A)");
  cli.flag("--progress", &opt.progress,
           "live batch progress line on stderr (runs done, events/s, ETA)");
}

/// The scheduler flags `run` and `serve` share; `policyHelp` lists the
/// policies the command accepts.
void addPolicyFlags(core::CliConfig& cli, CliOptions& opt,
                    const char* policyHelp) {
  cli.section("Scheduler");
  cli.option("--policy", &opt.policy, "NAME", policyHelp);
  cli.option("--sf", &opt.sf, "F",
             "suspension factor for ss/tss/tss-online (default: 2)");
  cli.option("--gang-slots", &opt.gangSlots, "N",
             "gang multiprogramming level (default: 4)");
  cli.option("--gang-quantum", &opt.gangQuantum, "SEC",
             "gang time slice (default: 600)");
  cli.option("--depth", &opt.depth, "K",
             "reservation depth for depth (default: 2)");
}

core::CliCommands makeCli(CliOptions& opt) {
  core::CliCommands cli(
      "sps_sim",
      "parallel job scheduling simulator\n(Kettimuthu et al., \"Selective "
      "Preemption Strategies for Parallel Job\nScheduling\", reproduced in "
      "C++20)");

  core::CliConfig& run = cli.command("run", "simulate one policy");
  addWorkloadFlags(run, opt);
  addPolicyFlags(run, opt,
                 "fcfs | conservative | easy | sjf | ss | tss | tss-online | "
                 "is | gang | depth (default: ss)");
  run.flag("--overhead", &opt.overhead,
           "2 MB/s disk-swap suspension cost (Section V-A)");
  addObsFlags(run, opt);
  addOutputFlags(run, opt);
  run.section("Output");
  run.flag("--worst", &opt.worst, "also print worst-case grids");

  core::CliConfig& compare =
      cli.command("compare", "run a scheme set side by side");
  addWorkloadFlags(compare, opt);
  addBatchFlags(compare, opt);
  addObsFlags(compare, opt);
  addOutputFlags(compare, opt);

  core::CliConfig& sweep =
      cli.command("sweep", "scheme set across load factors (Section VI)");
  addWorkloadFlags(sweep, opt);
  addBatchFlags(sweep, opt);
  sweep.section("Sweep");
  sweep.option("--factors", &opt.factors, "F1,F2,...",
               "load factors (default: 1.0,1.1,1.2,1.3)");
  addObsFlags(sweep, opt);
  sweep.section("Output");
  sweep.flag("--csv", &opt.csv, "CSV tables instead of aligned ASCII");
  sweep.option("--metrics-out", &opt.metricsOut, "FILE",
               "write an OpenMetrics text exposition of every run");

  core::CliConfig& serve =
      cli.command("serve", "online scheduler service on stdin/stdout");
  serve.section("Machine");
  serve.option("--procs", &opt.procs, "N", "machine size (required)");
  addPolicyFlags(serve, opt,
                 "fcfs | conservative | easy | sjf | ss | tss-online | is | "
                 "gang | depth (default: ss; tss needs offline calibration "
                 "and cannot serve)");
  addObsFlags(serve, opt);
  serve.section("Output");
  serve.option("--metrics-out", &opt.metricsOut, "FILE",
               "write an OpenMetrics text exposition after drain");

  core::CliConfig& replicate =
      cli.command("replicate", "scheme set over independently-seeded runs");
  addWorkloadFlags(replicate, opt);
  addBatchFlags(replicate, opt);
  replicate.section("Replication");
  replicate.option("--seeds", &opt.seeds, "N",
                   "replication count, seeded seed..seed+N-1 (default: 5)");
  addObsFlags(replicate, opt);
  replicate.section("Output");
  replicate.flag("--csv", &opt.csv, "CSV tables instead of aligned ASCII");

  cli.setDefault("run");
  return cli;
}

workload::Trace buildWorkload(const CliOptions& opt) {
  workload::Trace trace;
  if (!opt.swfFile.empty()) {
    if (opt.procs == 0) fail("--swf requires --procs");
    workload::SwfReadStats stats;
    trace =
        workload::readSwfFile(opt.swfFile, opt.swfFile, opt.procs, &stats);
    std::cerr << "read " << stats.jobsAccepted << " jobs ("
              << stats.droppedNonPositiveRuntime +
                     stats.droppedNonPositiveProcs + stats.droppedTooWide
              << " dropped, " << stats.estimatesClamped
              << " estimates clamped)\n";
  } else {
    workload::SyntheticConfig cfg;
    if (opt.preset == "ctc") cfg = workload::ctcConfig(opt.jobs, opt.seed);
    else if (opt.preset == "sdsc")
      cfg = workload::sdscConfig(opt.jobs, opt.seed);
    else if (opt.preset == "kth")
      cfg = workload::kthConfig(opt.jobs, opt.seed);
    else fail("unknown preset: " + opt.preset);
    if (opt.load) cfg.offeredLoad = *opt.load;
    if (opt.procs != 0 && opt.procs != cfg.machineProcs)
      cfg = workload::scaledToMachine(cfg, opt.procs);
    trace = workload::generateTrace(cfg);
  }

  if (opt.estimates == "modal") {
    workload::EstimateModelConfig est;
    est.kind = workload::EstimateModelKind::Modal;
    est.seed = opt.seed + 1;
    applyEstimates(trace, est);
  } else if (opt.estimates == "uniform") {
    workload::EstimateModelConfig est;
    est.kind = workload::EstimateModelKind::UniformFactor;
    est.seed = opt.seed + 1;
    applyEstimates(trace, est);
  } else if (opt.estimates != "accurate") {
    fail("unknown estimate model: " + opt.estimates);
  }

  if (opt.loadFactor != 1.0)
    trace = workload::scaleLoad(trace, opt.loadFactor);
  return trace;
}

/// Build the requested trace sink, or null when --trace is off. The format
/// is checked either way, so a bad --trace-format never passes silently.
std::unique_ptr<obs::TraceSink> makeSink(const CliOptions& opt) {
  if (opt.traceFormat != "chrome" && opt.traceFormat != "jsonl")
    fail("unknown --trace-format: " + opt.traceFormat);
  if (opt.traceFile.empty()) return nullptr;
  if (opt.traceFormat == "chrome")
    return std::make_unique<obs::ChromeTraceSink>(opt.traceFile);
  return std::make_unique<obs::JsonlSink>(opt.traceFile);
}

/// The policy `--policy` names, with the parameter flags it takes checked
/// and applied; `run` and `serve` share it. TSS's calibrated limits are left
/// to the caller.
core::PolicySpec policyFromFlags(const CliOptions& opt) {
  // The shared registry (sched::specFromToken) owns the name -> policy
  // mapping. Parameterized policies get a ":1" placeholder — their real
  // parameters ride dedicated CLI flags, not token suffixes, and doubles
  // must not round-trip through text — and the label reverts to the
  // policy's own name(), as before.
  const bool ss = opt.policy == "ss" || opt.policy == "tss" ||
                  opt.policy == "tss-online";
  const bool parameterized = ss || opt.policy == "depth";
  core::PolicySpec spec;
  try {
    spec =
        sched::specFromToken(parameterized ? opt.policy + ":1" : opt.policy);
  } catch (const InputError&) {
    fail("unknown policy: " + opt.policy);
  }
  spec.label.clear();
  if (ss) {
    if (!(opt.sf >= 1.0)) fail("--sf must be at least 1");
    spec.ss.suspensionFactor = opt.sf;
  }
  if (opt.policy == "tss-online") spec.ss.tssOnlineMultiplier = 1.5;
  if (opt.policy == "depth") {
    if (opt.depth < 1) fail("--depth must be at least 1");
    spec.depth.depth = opt.depth;
  }
  if (opt.policy == "gang") {
    if (opt.gangSlots < 1) fail("--gang-slots must be at least 1");
    if (opt.gangQuantum <= 0) fail("--gang-quantum must be positive");
    spec.gang.maxSlots = opt.gangSlots;
    spec.gang.slotQuantum = opt.gangQuantum;
  }
  return spec;
}

core::PolicySpec buildPolicy(const CliOptions& opt, core::Runner& runner,
                             const workload::Trace& trace) {
  core::PolicySpec spec = policyFromFlags(opt);
  if (opt.policy == "tss") {
    std::cerr << "calibrating TSS limits from an NS run...\n";
    spec.ss.tssLimits = core::bootstrapTssLimits(runner, trace);
  }
  return spec;
}

std::vector<core::PolicySpec> buildSchemeSet(
    const CliOptions& opt, core::Runner& runner,
    const workload::Trace& trace, const core::SimulationOptions& options) {
  if (opt.set == "paper") return core::ssSchemeSet();
  if (opt.set == "classic") return core::classicSchemeSet();
  if (opt.set == "tss")
    return core::tssSchemeSet(
        core::bootstrapTssLimits(runner, trace, 1.5, options));
  fail("unknown scheme set: " + opt.set);
}

void printTable(const Table& table, bool csv) {
  if (csv) table.printCsv(std::cout);
  else table.printAscii(std::cout);
}

/// Progress wiring for the batch commands: a ProgressBoard attached to the
/// runner plus a stderr reporter, built only under --progress. finish() must
/// run before any result tables print so the final frame's newline lands
/// ahead of them.
struct ProgressScope {
  std::optional<core::ProgressBoard> board;
  std::optional<core::ProgressReporter> reporter;

  void start(core::Runner& runner, bool enabled) {
    if (!enabled) return;
    board.emplace();
    runner.attachProgress(&*board);
    reporter.emplace(*board, std::cerr);
  }
  void finish(core::Runner& runner) {
    if (!board) return;
    reporter.reset();  // paints the final frame and ends the line
    runner.attachProgress(nullptr);
  }
};

/// Write the --metrics-out file through `write`, when one was asked for.
void writeMetricsOut(const std::string& path,
                     const std::function<void(std::ostream&)>& write) {
  if (path.empty()) return;
  std::ofstream os(path);
  if (!os) fail("cannot open --metrics-out file: " + path);
  write(os);
  if (!os) fail("failed writing --metrics-out file: " + path);
  std::cerr << "wrote OpenMetrics exposition to " << path << "\n";
}

void printCountersTable(const metrics::RunStats& stats, bool csv) {
  std::cout << "\nObservability counters (" << stats.policyName << "):\n";
  Table t({"counter", "value"});
  for (std::size_t i = 0; i < obs::kCounterCount; ++i) {
    const auto c = static_cast<obs::Counter>(i);
    if (stats.counters.value(c) != 0)
      t.row().cell(obs::counterName(c)).cell(
          static_cast<std::int64_t>(stats.counters.value(c)));
  }
  const auto& byCategory = stats.counters.suspensionsByCategory();
  for (std::size_t i = 0; i < byCategory.size(); ++i)
    if (byCategory[i] != 0)
      t.row()
          .cell("sim.suspensions[" + workload::category16Name(i) + "]")
          .cell(static_cast<std::int64_t>(byCategory[i]));
  printTable(t, csv);
}

void printRunGrids(const metrics::RunStats& stats, const CliOptions& opt) {
  const auto cat = metrics::categorize16(stats.jobs);
  std::cout << "\nAverage bounded slowdown by category:\n";
  printTable(metrics::categoryGrid16(cat, metrics::Metric::AvgSlowdown),
             opt.csv);
  std::cout << "\nAverage turnaround time (s) by category:\n";
  printTable(metrics::categoryGrid16(cat, metrics::Metric::AvgTurnaround, 0),
             opt.csv);
  if (opt.worst) {
    std::cout << "\np95 slowdown by category:\n";
    printTable(metrics::categoryGrid16(cat, metrics::Metric::P95Slowdown),
               opt.csv);
    std::cout << "\nWorst-case slowdown by category:\n";
    printTable(metrics::categoryGrid16(cat, metrics::Metric::WorstSlowdown),
               opt.csv);
    std::cout << "\nWorst-case turnaround time (s) by category:\n";
    printTable(
        metrics::categoryGrid16(cat, metrics::Metric::WorstTurnaround, 0),
        opt.csv);
  }
}

int runSingle(const CliOptions& opt, core::Runner& runner,
              const workload::Trace& trace,
              const core::SimulationOptions& options) {
  const core::PolicySpec spec = buildPolicy(opt, runner, trace);
  core::RunRequest request;
  request.trace = core::borrowTrace(trace);
  request.spec = spec;
  request.options = options;
  request.seed = opt.seed;
  const core::RunResult result = runner.runOne(request);

  writeMetricsOut(opt.metricsOut, [&](std::ostream& os) {
    core::writeRunResultsOpenMetrics(os, {result});
  });

  if (opt.json) {
    metrics::JsonOptions jsonOptions;
    jsonOptions.includeJobs = !opt.summaryOnly;
    core::writeRunResultsJson(std::cout, {result}, jsonOptions);
    std::cout << "\n";
    return 0;
  }

  const metrics::RunStats& stats = result.stats;
  std::cout << metrics::summaryLine(stats) << "\n";
  if (opt.counters) printCountersTable(stats, opt.csv);
  if (opt.summaryOnly) return 0;

  std::cout << "\nWorkload (" << trace.name << ", " << trace.machineProcs
            << " processors):\n";
  printTable(workload::summaryStatsTable(workload::summarizeTrace(trace)),
             opt.csv);
  printRunGrids(stats, opt);
  return 0;
}

int runCompare(const CliOptions& opt, core::Runner& runner,
               const workload::Trace& trace,
               const core::SimulationOptions& options) {
  const std::vector<core::PolicySpec> specs =
      buildSchemeSet(opt, runner, trace, options);

  const auto shared = core::borrowTrace(trace);
  std::vector<core::RunRequest> batch;
  for (const core::PolicySpec& spec : specs) {
    core::RunRequest request;
    request.trace = shared;
    request.spec = spec;
    request.options = options;
    request.seed = opt.seed;
    batch.push_back(std::move(request));
  }
  // The per-run "finished" lines and the --progress repaint line would
  // shred each other; progress replaces them.
  if (!opt.json && !opt.progress)
    runner.onRunComplete([](const core::RunResult& r) {
      std::cerr << "finished " << r.label << " ("
                << formatFixed(r.wallSeconds, 2) << "s)\n";
    });
  ProgressScope progress;
  progress.start(runner, opt.progress);
  const std::vector<core::RunResult> results = runner.runAll(std::move(batch));
  progress.finish(runner);

  writeMetricsOut(opt.metricsOut, [&](std::ostream& os) {
    core::writeRunResultsOpenMetrics(os, results);
  });

  if (opt.json) {
    metrics::JsonOptions jsonOptions;
    jsonOptions.includeJobs = !opt.summaryOnly;
    core::writeRunResultsJson(std::cout, results, jsonOptions);
    std::cout << "\n";
    return 0;
  }

  std::vector<metrics::RunStats> runs;
  runs.reserve(results.size());
  for (const core::RunResult& r : results) runs.push_back(r.stats);
  core::printRunSummaries(std::cout, runs);
  if (opt.counters)
    for (const metrics::RunStats& stats : runs)
      printCountersTable(stats, opt.csv);
  if (opt.summaryOnly) return 0;
  core::printFigurePanels(std::cout, "average bounded slowdown by category",
                          runs, metrics::Metric::AvgSlowdown);
  core::printFigurePanels(std::cout, "average turnaround time by category",
                          runs, metrics::Metric::AvgTurnaround);
  return 0;
}

std::vector<double> parseFactors(const std::string& text) {
  std::vector<double> factors;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string piece =
        text.substr(start, comma == std::string::npos ? comma : comma - start);
    if (!piece.empty())
      factors.push_back(
          core::detail::parseCliValue<double>("--factors", piece));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (factors.empty()) fail("--factors needs at least one load factor");
  return factors;
}

int runSweep(const CliOptions& opt, core::Runner& runner,
             const workload::Trace& trace,
             const core::SimulationOptions& options) {
  const std::vector<double> factors = parseFactors(opt.factors);
  const std::vector<core::PolicySpec> specs =
      buildSchemeSet(opt, runner, trace, options);
  ProgressScope progress;
  progress.start(runner, opt.progress);
  const std::vector<core::LoadPoint> points =
      core::loadSweep(runner, trace, specs, factors,
                      /*calibrateTssFromBase=*/true, options);
  progress.finish(runner);

  writeMetricsOut(opt.metricsOut, [&](std::ostream& os) {
    std::vector<metrics::OpenMetricsEntry> entries;
    std::size_t run = 0;
    for (const core::LoadPoint& point : points)
      for (const metrics::RunStats& stats : point.runs) {
        metrics::OpenMetricsEntry entry;
        entry.stats = &stats;
        entry.run = run++;
        entry.label =
            stats.policyName + " @x" + formatFixed(point.loadFactor, 2);
        entry.seed = opt.seed;
        entries.push_back(std::move(entry));
      }
    metrics::writeOpenMetrics(os, entries);
  });

  for (const core::LoadPoint& point : points) {
    std::cout << "\n=== load factor " << formatFixed(point.loadFactor, 2)
              << " ===\n";
    core::printRunSummaries(std::cout, point.runs);
  }
  return 0;
}

int runReplicate(const CliOptions& opt, core::Runner& runner,
                 const core::SimulationOptions& options) {
  if (!opt.swfFile.empty())
    fail("replicate reseeds the synthetic generator per run; it cannot use "
         "a fixed --swf log");
  if (opt.seeds == 0) fail("--seeds must be at least 1");
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < opt.seeds; ++i) seeds.push_back(opt.seed + i);

  CliOptions traceOpt = opt;  // buildWorkload with a per-replication seed
  auto makeTrace = [&traceOpt](std::uint64_t seed) {
    CliOptions o = traceOpt;
    o.seed = seed;
    return buildWorkload(o);
  };
  // TSS limits recalibrate per seed inside replicate(); the engaged value
  // only marks the spec as TSS.
  core::Runner calibration({.threads = 1});
  const workload::Trace base = makeTrace(opt.seed);
  const std::vector<core::PolicySpec> specs =
      buildSchemeSet(opt, calibration, base, options);

  ProgressScope progress;
  progress.start(runner, opt.progress);
  const std::vector<core::ReplicationResult> results =
      core::replicate(runner, makeTrace, seeds, specs, options);
  progress.finish(runner);
  std::cout << "Replication over " << seeds.size() << " seeds ("
            << base.name << " family):\n";
  printTable(core::replicationTable(results), opt.csv);
  return 0;
}

int runServe(const CliOptions& opt, const core::SimulationOptions& options) {
  if (opt.procs == 0) fail("serve requires --procs (no trace to infer from)");
  if (opt.policy == "tss")
    fail("tss calibrates its protection limits from an offline NS run over "
         "the whole workload; an online service cannot — use tss-online");
  core::ServiceConfig cfg;
  cfg.traceName = "serve";
  cfg.machineProcs = opt.procs;
  cfg.spec = policyFromFlags(opt);
  cfg.options = options;

  core::SchedulerService service(std::move(cfg));
  const metrics::RunStats stats = service.serve(std::cin, std::cout);
  writeMetricsOut(opt.metricsOut,
                  [&](std::ostream& os) { os << metrics::openMetrics(stats); });
  std::cerr << metrics::summaryLine(stats) << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opt;
  core::CliCommands cli = makeCli(opt);
  core::CliCommands::Outcome outcome;
  try {
    outcome = cli.parse(argc, argv);
  } catch (const sps::InputError& e) {
    fail(e.what());
  }
  if (outcome.helpRequested) {
    cli.printUsage(std::cout, outcome.command);
    return 0;
  }
  if (opt.verbose) setLogLevel(LogLevel::Info);

  const std::string& command = outcome.command;

  try {
    const bool batch = command != "run";
    core::Runner runner({.threads = batch ? opt.threads : 1});

    std::unique_ptr<obs::TraceSink> sink = makeSink(opt);
    core::SimulationOptions options;
    options.traceSink = sink.get();
    if (opt.check)
      options.check = check::CheckConfig::all(
          static_cast<std::uint32_t>(opt.checkStride));
    options.timeline.enabled = opt.timeline;
    options.timeline.stride = opt.timelineStride;
    std::optional<sched::DiskSwapOverhead> overhead;

    if (command == "replicate") {
      // The workload is rebuilt per seed; overhead models are per-trace and
      // would dangle, so replication runs with free preemption (as the
      // paper's replication-style comparisons do).
      if (opt.overhead)
        fail("replicate does not support --overhead (per-seed traces)");
      return runReplicate(opt, runner, options);
    }
    // serve builds no workload: jobs arrive over the protocol.
    if (command == "serve") return runServe(opt, options);

    const workload::Trace trace = buildWorkload(opt);
    if (opt.overhead) {
      overhead.emplace(trace, 2.0);
      options.sim.overhead = &*overhead;
    }

    if (command == "compare") return runCompare(opt, runner, trace, options);
    if (command == "sweep") return runSweep(opt, runner, trace, options);
    return runSingle(opt, runner, trace, options);
  } catch (const sps::InputError& e) {
    std::cerr << "sps_sim: input error: " << e.what() << "\n";
    return 1;
  } catch (const sps::InvariantError& e) {
    std::cerr << "sps_sim: internal error: " << e.what() << "\n";
    return 1;
  }
}
