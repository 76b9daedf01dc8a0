// google-benchmark microbenchmarks of the discrete-event engine (event
// queue + whole-simulation throughput), plus the scheduling-kernel sweep:
// every backfilling policy on a high-load SDSC trace under both
// KernelMode::Incremental and KernelMode::Rebuild, with events/sec and
// wall time written to BENCH_engine.json. The Rebuild lane is the
// pre-kernel per-event-reconstruction behaviour, so the per-policy speedup
// column is the before/after number for the incremental kernel.
//
// `ctest -L perf-smoke` (the golden-equivalence suite) is the gate that
// makes these speedups meaningful: both lanes produce bit-identical
// schedules, so the comparison is pure engine cost.
#include <benchmark/benchmark.h>

#include <chrono>
#include <fstream>
#include <iostream>
#include <vector>

#include "check/check_config.hpp"
#include "core/scheduler_service.hpp"
#include "core/simulation.hpp"
#include "fed/federation.hpp"
#include "fed/router.hpp"
#include "metrics/json.hpp"
#include "obs/trace.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace sps;
using sched::kernel::KernelMode;

void BM_EventQueuePushPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<Time> times(n);
  for (auto& t : times) t = rng.uniformInt(0, 1000000);
  for (auto _ : state) {
    sim::EventQueue q;
    for (std::size_t i = 0; i < n; ++i)
      q.push(times[i], sim::EventType::Timer, i);
    while (!q.empty()) benchmark::DoNotOptimize(q.pop());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1000)->Arg(10000)->Arg(100000);

template <core::PolicyKind Kind>
void BM_Simulation(benchmark::State& state) {
  const auto jobs = static_cast<std::size_t>(state.range(0));
  const auto trace = workload::generateTrace(workload::sdscConfig(jobs, 7));
  core::PolicySpec spec;
  spec.kind = Kind;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::runSimulation(trace, spec));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(jobs));
  state.SetLabel("jobs/s");
}
BENCHMARK(BM_Simulation<core::PolicyKind::Fcfs>)->Arg(2000);
BENCHMARK(BM_Simulation<core::PolicyKind::Conservative>)->Arg(2000);
BENCHMARK(BM_Simulation<core::PolicyKind::Easy>)->Arg(2000);
BENCHMARK(BM_Simulation<core::PolicyKind::SelectiveSuspension>)->Arg(2000);
BENCHMARK(BM_Simulation<core::PolicyKind::ImmediateService>)->Arg(2000);

// --- scheduling-kernel sweep -----------------------------------------------

struct Lane {
  double wallSeconds = 0.0;
  double eventsPerSec = 0.0;
  std::uint64_t events = 0;
  obs::Counters counters;  ///< identical across repeats (deterministic)
};

Lane timeLane(const workload::Trace& trace, const core::PolicySpec& spec,
              int repeats, const core::SimulationOptions& options = {}) {
  Lane best;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    const metrics::RunStats stats = core::runSimulation(trace, spec, options);
    const auto t1 = std::chrono::steady_clock::now();
    const double wall = std::chrono::duration<double>(t1 - t0).count();
    if (r == 0 || wall < best.wallSeconds) {
      best.wallSeconds = wall;
      best.events = stats.eventsProcessed;
      best.eventsPerSec = static_cast<double>(stats.eventsProcessed) / wall;
      best.counters = stats.counters;
    }
  }
  return best;
}

std::size_t sweepJobs() {
  if (const char* env = std::getenv("SPS_BENCH_JOBS")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 8000;
}

void runKernelSweep() {
  if (obs::kTraceCompiledIn) {
    // A -DSPS_TRACE=ON build carries per-event trace branches in the hot
    // path; numbers from it are not comparable to (and must not overwrite)
    // the reference BENCH_engine.json. Counters alone are part of the
    // measured configuration and stay in.
    std::cout << "kernel sweep: skipped — tracing compiled in "
                 "(SPS_TRACE=ON); refusing to write BENCH_engine.json\n";
    return;
  }
  const std::size_t jobs = sweepJobs();
  const int repeats = 3;
  // High-load SDSC: the regime where the availability profile is largest
  // (long queues, deep reservation sets) and per-event rebuilds hurt most.
  auto config = workload::sdscConfig(jobs, 42);
  config.offeredLoad = 0.95;
  const auto trace = workload::generateTrace(config);

  std::vector<std::pair<const char*, core::PolicySpec>> policies;
  core::PolicySpec spec;
  // FCFS uses no kernel structures; its lane measures the raw event-engine
  // floor the other speedups are bounded by.
  spec = {};
  spec.kind = core::PolicyKind::Fcfs;
  policies.emplace_back("fcfs", spec);
  spec = {};
  spec.kind = core::PolicyKind::Conservative;
  policies.emplace_back("conservative", spec);
  spec = {};
  spec.kind = core::PolicyKind::Easy;
  policies.emplace_back("easy", spec);
  spec = {};
  spec.kind = core::PolicyKind::Easy;
  spec.easy.order = sched::QueueOrder::ShortestFirst;
  policies.emplace_back("sjf-bf", spec);
  spec = {};
  spec.kind = core::PolicyKind::DepthBackfill;
  spec.depth.depth = sched::kUnlimitedDepth;
  policies.emplace_back("depth-inf", spec);
  spec = {};
  spec.kind = core::PolicyKind::SelectiveSuspension;
  policies.emplace_back("ss", spec);
  spec = {};
  spec.kind = core::PolicyKind::SelectiveSuspension;
  spec.ss.tssOnlineMultiplier = 1.5;
  policies.emplace_back("tss-online", spec);
  spec = {};
  spec.kind = core::PolicyKind::ImmediateService;
  policies.emplace_back("is", spec);

  std::ofstream out("BENCH_engine.json");
  metrics::JsonWriter w(out);
  w.beginObject();
  w.field("bench", "engine_kernel_sweep");
  w.key("trace").beginObject();
  w.field("kind", "sdsc");
  w.field("jobs", static_cast<std::uint64_t>(jobs));
  w.field("seed", static_cast<std::uint64_t>(42));
  w.field("offeredLoad", config.offeredLoad);
  w.endObject();
  w.field("repeats", static_cast<std::int64_t>(repeats));
  w.key("policies").beginArray();

  std::cout << "kernel sweep: sdsc jobs=" << jobs
            << " load=" << config.offeredLoad << " (best of " << repeats
            << ")\n";
  // The sps::check oracle lane: everything armed at the default stride.
  // Its overhead vs the unchecked incremental lane is the cost of --check.
  core::SimulationOptions checked;
  checked.check = check::CheckConfig::all();
  // The telemetry lane: timeline sampling at the default stride on the
  // incremental kernel. Its overhead vs the plain incremental lane is the
  // cost of --timeline; the acceptance bound is <= 5%.
  core::SimulationOptions sampled;
  sampled.timeline.enabled = true;
  // The rebuild lane runs the reference kernel structure, so the speedup
  // column prices the incremental kernel, with golden equivalence pinning
  // both modes to one schedule.

  for (const auto& [label, policySpec] : policies) {
    const Lane reb =
        timeLane(trace, sched::withKernelMode(policySpec, KernelMode::Rebuild),
                 repeats);
    const Lane inc = timeLane(
        trace, sched::withKernelMode(policySpec, KernelMode::Incremental),
        repeats);
    const Lane chk = timeLane(
        trace, sched::withKernelMode(policySpec, KernelMode::Incremental),
        repeats, checked);
    const Lane tl = timeLane(
        trace, sched::withKernelMode(policySpec, KernelMode::Incremental),
        repeats, sampled);
    const double speedup = inc.eventsPerSec / reb.eventsPerSec;
    const double checkOverhead = inc.eventsPerSec / chk.eventsPerSec;
    const double timelineOverhead = inc.eventsPerSec / tl.eventsPerSec;
    w.beginObject();
    w.field("policy", label);
    w.key("rebuild").beginObject();
    w.field("wallSeconds", reb.wallSeconds);
    w.field("eventsPerSec", reb.eventsPerSec);
    w.field("events", reb.events);
    w.key("counters");
    metrics::writeCountersJson(w, reb.counters);
    w.endObject();
    w.key("incremental").beginObject();
    w.field("wallSeconds", inc.wallSeconds);
    w.field("eventsPerSec", inc.eventsPerSec);
    w.field("events", inc.events);
    w.key("counters");
    metrics::writeCountersJson(w, inc.counters);
    w.endObject();
    w.key("checked").beginObject();
    w.field("wallSeconds", chk.wallSeconds);
    w.field("eventsPerSec", chk.eventsPerSec);
    w.field("auditStride",
            static_cast<std::uint64_t>(checked.check.auditStride));
    w.field("overheadFactor", checkOverhead);
    w.endObject();
    w.key("timeline").beginObject();
    w.field("wallSeconds", tl.wallSeconds);
    w.field("eventsPerSec", tl.eventsPerSec);
    w.field("samples", tl.counters.value(obs::Counter::TimelineSamples));
    w.field("decimations",
            tl.counters.value(obs::Counter::TimelineDecimations));
    w.field("overheadFactor", timelineOverhead);
    w.endObject();
    w.field("speedup", speedup);
    w.endObject();
    std::cout << "  " << label << ": rebuild " << reb.eventsPerSec
              << " ev/s, incremental " << inc.eventsPerSec << " ev/s ("
              << speedup << "x), checked " << chk.eventsPerSec << " ev/s ("
              << checkOverhead << "x overhead), timeline " << tl.eventsPerSec
              << " ev/s (" << timelineOverhead << "x overhead)\n";
  }
  // Large-machine lanes: the scale-out configurations ROADMAP item 2 asks
  // for, riding the same policies array so perf_guard covers them like any
  // other lane. SDSC mix re-targeted at 16k and 100k processors (width
  // bands scale proportionally); fewer jobs than the paper-scale sweep so
  // the sweep's wall time stays bounded — events/s is per-lane comparable
  // against its own baseline, which is all the guard checks.
  struct BigLane {
    const char* label;
    std::uint32_t procs;
  };
  constexpr BigLane bigLanes[] = {{"16k", 16'384}, {"100k", 100'000}};
  for (const BigLane& big : bigLanes) {
    auto bigConfig =
        workload::scaledToMachine(workload::sdscConfig(jobs / 2, 42),
                                  big.procs);
    bigConfig.offeredLoad = 0.95;
    const auto bigTrace = workload::generateTrace(bigConfig);
    for (const char* policyLabel : {"fcfs", "ss"}) {
      core::PolicySpec bigSpec;
      bigSpec.kind = policyLabel[0] == 'f'
                         ? core::PolicyKind::Fcfs
                         : core::PolicyKind::SelectiveSuspension;
      const Lane inc = timeLane(
          bigTrace, sched::withKernelMode(bigSpec, KernelMode::Incremental),
          repeats);
      const std::string label = std::string(policyLabel) + "@" + big.label;
      w.beginObject();
      w.field("policy", label);
      w.field("lane", "large-machine");
      w.field("machineProcs", static_cast<std::uint64_t>(big.procs));
      w.field("jobs", static_cast<std::uint64_t>(bigTrace.jobs.size()));
      w.key("incremental").beginObject();
      w.field("wallSeconds", inc.wallSeconds);
      w.field("eventsPerSec", inc.eventsPerSec);
      w.field("events", inc.events);
      w.endObject();
      w.endObject();
      std::cout << "  " << label << ": incremental " << inc.eventsPerSec
                << " ev/s (" << bigTrace.jobs.size() << " jobs, "
                << big.procs << " procs)\n";
    }
  }
  // Service-ingest lane: the same sweep trace pushed through the
  // SchedulerService line protocol (parse + bounded-lookahead advance +
  // streamed submit) instead of a pre-built Trace, pricing the online
  // scheduler-service mode end to end. Golden equivalence guarantees the
  // schedule is bit-identical to the batch lanes, so the gap to the `easy`
  // incremental lane is pure ingest-boundary cost. Rides the policies
  // array so perf_guard prices it like any other lane.
  {
    std::string script;
    script.reserve(trace.jobs.size() * 32);
    for (const workload::Job& job : trace.jobs) {
      script += "submit " + std::to_string(job.submit) + ' ' +
                std::to_string(job.procs) + ' ' + std::to_string(job.runtime) +
                ' ' + std::to_string(job.estimate) + ' ' +
                std::to_string(job.memoryMb) + '\n';
    }
    script += "drain\n";
    Lane lane;
    for (int r = 0; r < repeats; ++r) {
      core::ServiceConfig cfg;
      cfg.traceName = "service-ingest";
      cfg.machineProcs = trace.machineProcs;
      cfg.spec.kind = core::PolicyKind::Easy;
      core::SchedulerService service(std::move(cfg));
      const auto t0 = std::chrono::steady_clock::now();
      std::size_t pos = 0;
      while (pos < script.size()) {
        const std::size_t eol = script.find('\n', pos);
        benchmark::DoNotOptimize(
            service.processLine({script.data() + pos, eol - pos}));
        pos = eol + 1;
      }
      const metrics::RunStats stats = service.finish();
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      if (r == 0 || wall < lane.wallSeconds) {
        lane.wallSeconds = wall;
        lane.events = stats.eventsProcessed;
        lane.eventsPerSec = static_cast<double>(stats.eventsProcessed) / wall;
      }
    }
    w.beginObject();
    w.field("policy", "service-ingest");
    w.field("lane", "service");
    w.field("jobs", static_cast<std::uint64_t>(trace.jobs.size()));
    w.key("incremental").beginObject();
    w.field("wallSeconds", lane.wallSeconds);
    w.field("eventsPerSec", lane.eventsPerSec);
    w.field("events", lane.events);
    w.endObject();
    w.endObject();
    std::cout << "  service-ingest: " << lane.eventsPerSec << " ev/s ("
              << trace.jobs.size() << " protocol submissions, easy)\n";
  }
  // Fleet lane: the federated simulator at 10M jobs (scaled by
  // SPS_BENCH_JOBS like every other lane: jobs x 1250, so the default 8000
  // sweep prices the acceptance-scale run). Two configurations over the
  // SAME fleet workload: 4 clusters x 128 procs under conservative epochs,
  // and the monolithic control — one 4x-wide machine swallowing the whole
  // stream. Equal work, equal total capacity. The shard pool is sized to
  // the host's cores, so fleetSpeedup (wall/wall) mixes partitioning's
  // algorithmic win (shorter per-shard queues, narrower ProcSets, smaller
  // backfill scans) with thread parallelism. Single repeat: the lanes are
  // long and deterministic.
  {
    const std::size_t fleetJobs = jobs * 1250;
    constexpr std::uint32_t kClusters = 4;
    auto clusterCfg = workload::sdscConfig(fleetJobs, 42);
    clusterCfg.offeredLoad = 0.95;
    const auto fleetTrace = workload::generateFleetTrace(clusterCfg, kClusters);

    core::PolicySpec fleetSpec;
    fleetSpec.kind = core::PolicyKind::Easy;
    fleetSpec = sched::withKernelMode(fleetSpec, KernelMode::Incremental);

    Lane fedLane;
    std::uint64_t epochs = 0;
    {
      fed::StaticHashRouter router;
      fed::FederationConfig cfg;
      cfg.shards = kClusters;
      fed::Federation federation(fleetTrace, fleetSpec, router, cfg);
      const auto t0 = std::chrono::steady_clock::now();
      const fed::FleetStats fleet = federation.run();
      fedLane.wallSeconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      fedLane.events = fleet.eventsProcessed();
      fedLane.eventsPerSec =
          static_cast<double>(fedLane.events) / fedLane.wallSeconds;
      epochs = fleet.epochs;
    }

    workload::Trace mono = fleetTrace;
    mono.machineProcs = fleetTrace.machineProcs * kClusters;
    mono.name += "/mono";
    const Lane single = timeLane(mono, fleetSpec, 1);
    const double fleetSpeedup = single.wallSeconds / fedLane.wallSeconds;

    w.beginObject();
    w.field("policy", "fleet@4x128");
    w.field("lane", "fleet");
    w.field("jobs", static_cast<std::uint64_t>(fleetTrace.jobs.size()));
    w.field("shards", static_cast<std::uint64_t>(kClusters));
    w.field("epochs", epochs);
    w.key("incremental").beginObject();
    w.field("wallSeconds", fedLane.wallSeconds);
    w.field("eventsPerSec", fedLane.eventsPerSec);
    w.field("events", fedLane.events);
    w.endObject();
    w.field("fleetSpeedup", fleetSpeedup);
    w.endObject();
    w.beginObject();
    w.field("policy", "fleet@1x512");
    w.field("lane", "fleet");
    w.field("jobs", static_cast<std::uint64_t>(mono.jobs.size()));
    w.key("incremental").beginObject();
    w.field("wallSeconds", single.wallSeconds);
    w.field("eventsPerSec", single.eventsPerSec);
    w.field("events", single.events);
    w.endObject();
    w.endObject();
    std::cout << "  fleet@4x128: " << fedLane.eventsPerSec << " ev/s in "
              << fedLane.wallSeconds << "s (" << epochs
              << " epochs); fleet@1x512 control " << single.eventsPerSec
              << " ev/s in " << single.wallSeconds << "s — partition speedup "
              << fleetSpeedup << "x\n";
  }
  w.endArray();
  w.endObject();
  out << "\n";
  std::cout << "wrote BENCH_engine.json\n";
}

}  // namespace

int main(int argc, char** argv) {
  runKernelSweep();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
