// Runner scaling — wall-clock speedup of the parallel experiment engine.
//
// The acceptance workload: a 5-spec x 4-load-factor loadSweep (the paper's
// Section VI shape) over a 10k-job synthetic SDSC trace, executed through
// core::Runner at 1 thread and at 8 threads (plus the hardware thread count
// when different). Prints per-configuration wall time, speedup, and a JSON
// RunResult export sample for downstream tooling.
//
// Environment:
//   SPS_BENCH_JOBS      trace size (default 10000 here)
//   SPS_BENCH_THREADS   comma-free single override for the "parallel" lane
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <vector>

#include "bench_common.hpp"
#include "core/runner.hpp"
#include "util/table.hpp"

namespace {

using namespace sps;

std::size_t benchJobs10k() {
  if (const char* env = std::getenv("SPS_BENCH_JOBS")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 10000;
}

struct Lane {
  std::size_t threads;
  double seconds = 0.0;
  std::vector<core::LoadPoint> points{};
};

double timedSweep(Lane& lane, const workload::Trace& trace,
                  const std::vector<core::PolicySpec>& specs,
                  const std::vector<double>& factors) {
  core::Runner runner({.threads = lane.threads});
  const auto start = std::chrono::steady_clock::now();
  lane.points = core::loadSweep(runner, trace, specs, factors);
  lane.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return lane.seconds;
}

}  // namespace

int main() {
  bench::banner("Runner scaling — parallel experiment engine",
                "the Section VI load-sweep shape");

  const workload::Trace trace =
      workload::generateTrace(workload::sdscConfig(benchJobs10k(), 42));
  const std::vector<core::PolicySpec> specs = core::ssSchemeSet();  // 5 specs
  const std::vector<double> factors = {1.0, 1.1, 1.2, 1.3};

  std::cout << "workload: " << trace.jobs.size() << " jobs, "
            << specs.size() << " specs x " << factors.size()
            << " load factors = " << specs.size() * factors.size()
            << " simulations (+1 TSS-free calibration skip)\n"
            << "hardware threads: "
            << util::ThreadPool::defaultThreadCount() << "\n\n";

  std::vector<Lane> lanes;
  lanes.push_back({.threads = 1});
  std::size_t parallelThreads = 8;
  if (const char* env = std::getenv("SPS_BENCH_THREADS")) {
    const long v = std::atol(env);
    if (v > 0) parallelThreads = static_cast<std::size_t>(v);
  }
  lanes.push_back({.threads = parallelThreads});

  for (Lane& lane : lanes) {
    std::cerr << "running sweep with " << lane.threads << " thread(s)...\n";
    timedSweep(lane, trace, specs, factors);
  }

  Table t({"threads", "wall (s)", "speedup vs 1 thread"});
  for (const Lane& lane : lanes) {
    t.row()
        .cell(static_cast<std::int64_t>(lane.threads))
        .cell(lane.seconds, 2)
        .cell(lanes[0].seconds / lane.seconds, 2);
  }
  t.printAscii(std::cout);

  // Cross-check: every lane must produce identical stats (the determinism
  // contract), so the speedup comparison is apples to apples.
  bool identical = true;
  for (std::size_t l = 1; l < lanes.size(); ++l) {
    for (std::size_t f = 0; f < factors.size(); ++f)
      for (std::size_t s = 0; s < specs.size(); ++s)
        identical &=
            metrics::runStatsJson(lanes[l].points[f].runs[s]) ==
            metrics::runStatsJson(lanes[0].points[f].runs[s]);
  }
  std::cout << "\nresults identical across thread counts: "
            << (identical ? "yes" : "NO — BUG") << "\n";

  const double speedup = lanes[0].seconds / lanes.back().seconds;
  std::cout << "speedup at " << lanes.back().threads
            << " threads: " << formatFixed(speedup, 2) << "x (target >= 3x on >= 8 hardware threads)\n";

  // JSON export sample: the load-1.0 row as a RunResult batch.
  core::Runner runner({.threads = 1});
  std::vector<core::RunRequest> batch;
  const auto shared = core::borrowTrace(trace);
  for (const core::PolicySpec& spec : specs) {
    core::RunRequest request;
    request.trace = shared;
    request.spec = spec;
    request.seed = 42;
    batch.push_back(std::move(request));
  }
  const auto results = runner.runAll(std::move(batch));
  metrics::JsonOptions options;
  options.includeJobs = false;  // keep the sample readable
  std::cout << "\nJSON export sample (load x1.0 row, jobs elided):\n"
            << core::runResultsJson(results, options) << "\n";
  return identical ? 0 : 1;
}
