// Runner — the parallel experiment engine.
//
// Every figure and table in the paper's evaluation is a batch of independent,
// deterministic simulations. The Runner is the one seam through which such
// batches execute: describe each run as a RunRequest, hand the batch to
// runAll(), and get back one RunResult per request, ordered by request index
// and bit-for-bit identical for any thread count.
//
//   core::Runner runner({.threads = 8});
//   std::vector<core::RunRequest> batch;
//   for (const auto& spec : core::ssSchemeSet())
//     batch.push_back({trace, spec});
//   auto results = runner.runAll(std::move(batch));
//
// The convenience free functions (compareSchemes, loadSweep, replicate,
// bootstrapTssLimits) are thin compositions over this class.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/simulation.hpp"
#include "metrics/json.hpp"
#include "obs/counters.hpp"
#include "util/thread_pool.hpp"

namespace sps::core {

class ProgressBoard;  // core/progress.hpp

/// One simulation to run: trace + policy + options, plus bookkeeping fields
/// that are echoed untouched into the RunResult so batch builders can tag
/// runs (sweep coordinates, seeds) without side tables.
struct RunRequest {
  /// Shared so a batch can reference one trace from many requests and the
  /// trace safely outlives the calling scope. Use shareTrace()/borrowTrace().
  std::shared_ptr<const workload::Trace> trace;
  PolicySpec spec;
  SimulationOptions options{};
  /// Echoed into RunResult::seed — the workload seed, by convention.
  std::uint64_t seed = 0;
  /// Echoed into RunResult::label; empty = the run's policy name.
  std::string label;
};

/// Take ownership of a trace and share it between requests.
[[nodiscard]] std::shared_ptr<const workload::Trace> shareTrace(
    workload::Trace trace);

/// Non-owning view of a caller-owned trace (must outlive the runs).
[[nodiscard]] std::shared_ptr<const workload::Trace> borrowTrace(
    const workload::Trace& trace);

/// Outcome of one request: the collected stats plus request echo and timing.
struct RunResult {
  std::size_t index = 0;  ///< position in the submitted batch
  std::string policyName;
  std::string traceName;
  std::uint64_t seed = 0;  ///< RunRequest::seed, echoed
  std::string label;       ///< RunRequest::label, or policyName
  double wallSeconds = 0.0;  ///< wall-clock time of this simulation
  metrics::RunStats stats;
};

/// Executes batches of simulations on a fixed-size thread pool.
///
/// Determinism contract: RunResult::stats depends only on the request (the
/// simulations share no mutable state), results come back ordered by request
/// index, and a failing run rethrows the lowest-index exception — so any
/// thread count produces identical outcomes. Only wallSeconds and the
/// onRunComplete callback order vary run to run.
class Runner {
 public:
  struct Config {
    /// Worker threads; 0 = one per hardware thread. 1 runs inline on the
    /// calling thread (no pool).
    std::size_t threads = 0;
  };

  /// Progress hook, called once per finished run in *completion* order
  /// (not index order). It fires on the worker thread that finished the run
  /// (the calling thread on the inline threads==1 / single-request path).
  /// Invocations are serialized; the hook needs no internal locking. A hook
  /// that throws does not kill the worker or fail the batch: the exception
  /// is caught, logged at Warning, and counted in engineCounters() under
  /// obs::Counter::RunnerHookExceptions.
  using RunCompleteHook = std::function<void(const RunResult&)>;

  Runner();  ///< default Config
  explicit Runner(Config config);
  ~Runner();

  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  [[nodiscard]] std::size_t threadCount() const { return threads_; }

  void onRunComplete(RunCompleteHook hook);

  /// Publish live batch progress to `board` (see core/progress.hpp):
  /// runAll/runOne announce their runs via beginBatch and every run streams
  /// its sim-clock fraction and event count through a board Ticket. nullptr
  /// detaches. The board must outlive any batch started while attached.
  void attachProgress(ProgressBoard* board);

  /// Engine-level counters (hook exceptions, …) — distinct from the per-run
  /// simulation counters inside each RunResult. Returns a copy; safe to
  /// call while a batch runs.
  [[nodiscard]] obs::Counters engineCounters() const;

  /// Run the whole batch; blocks until every run finished. Results are
  /// ordered by request index. Throws the first (by index) run's exception
  /// after the batch has drained.
  [[nodiscard]] std::vector<RunResult> runAll(
      std::vector<RunRequest> requests);

  /// Run one request inline on the calling thread.
  [[nodiscard]] RunResult runOne(const RunRequest& request);

 private:
  [[nodiscard]] RunResult execute(const RunRequest& request,
                                  std::size_t index);
  void notify(const RunResult& result);

  std::size_t threads_;
  std::unique_ptr<util::ThreadPool> pool_;  ///< lazily created on first batch
  RunCompleteHook hook_;
  /// Serializes hook invocations and guards engineCounters_ across workers.
  mutable std::mutex hookMutex_;
  obs::Counters engineCounters_;  ///< under hookMutex_
  ProgressBoard* progress_ = nullptr;
};

/// JSON export of result batches, for the bench harness and sps_sim --json.
/// Schema: {"schemaVersion":1,"results":[{index,label,seed,policy,trace,
/// wallSeconds,stats:{...metrics::writeRunStatsJson...}},...]}.
void writeRunResultsJson(std::ostream& os,
                         const std::vector<RunResult>& results,
                         const metrics::JsonOptions& options = {});
[[nodiscard]] std::string runResultsJson(
    const std::vector<RunResult>& results,
    const metrics::JsonOptions& options = {});

/// OpenMetrics exposition of a result batch (sps_sim --metrics-out): one
/// metrics::OpenMetricsEntry per run, carrying the batch index, label, seed,
/// and wall time alongside the stats.
void writeRunResultsOpenMetrics(std::ostream& os,
                                const std::vector<RunResult>& results);

}  // namespace sps::core
