#include "core/runner.hpp"

#include <chrono>
#include <exception>
#include <ostream>
#include <sstream>
#include <utility>

#include "core/progress.hpp"
#include "metrics/openmetrics.hpp"
#include "obs/trace_sink.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace sps::core {

std::shared_ptr<const workload::Trace> shareTrace(workload::Trace trace) {
  return std::make_shared<const workload::Trace>(std::move(trace));
}

std::shared_ptr<const workload::Trace> borrowTrace(
    const workload::Trace& trace) {
  // Aliasing constructor: shared_ptr interface, no ownership.
  return std::shared_ptr<const workload::Trace>(
      std::shared_ptr<const workload::Trace>(), &trace);
}

Runner::Runner() : Runner(Config{}) {}

Runner::Runner(Config config)
    : threads_(config.threads == 0 ? util::ThreadPool::defaultThreadCount()
                                   : config.threads) {}

Runner::~Runner() = default;

void Runner::onRunComplete(RunCompleteHook hook) { hook_ = std::move(hook); }

void Runner::attachProgress(ProgressBoard* board) { progress_ = board; }

obs::Counters Runner::engineCounters() const {
  std::lock_guard<std::mutex> lock(hookMutex_);
  return engineCounters_;
}

namespace {
Time progressHorizon(const workload::Trace& trace) {
  return trace.jobs.empty() ? Time{0} : trace.jobs.back().submit;
}
}  // namespace

RunResult Runner::execute(const RunRequest& request, std::size_t index) {
  SPS_CHECK_MSG(request.trace != nullptr,
                "RunRequest " << index << " has no trace");
  RunResult result;
  result.index = index;
  result.seed = request.seed;
  SimulationOptions options = request.options;
  ProgressBoard::Ticket ticket;
  if (progress_ != nullptr) {
    ticket = progress_->startRun(progressHorizon(*request.trace));
    options.progress = &ticket;
  }
  const auto start = std::chrono::steady_clock::now();
  result.stats = runSimulation(*request.trace, request.spec, options);
  const auto end = std::chrono::steady_clock::now();
  if (progress_ != nullptr)
    progress_->finishRun(ticket, result.stats.eventsProcessed);
  result.wallSeconds = std::chrono::duration<double>(end - start).count();
  result.policyName = result.stats.policyName;
  result.label = request.label.empty() ? result.policyName : request.label;
  result.traceName = result.stats.traceName;
  // Task-lifecycle span: wall-clock timebase (unlike the sim-time events
  // inside the run), one lane per request index so concurrent tasks stack
  // in the viewer. The label string outlives the synchronous emit.
  if (request.options.traceSink != nullptr) {
    const auto startUs = std::chrono::duration_cast<std::chrono::microseconds>(
        start.time_since_epoch());
    const auto durUs =
        std::chrono::duration_cast<std::chrono::microseconds>(end - start);
    request.options.traceSink->emit(
        obs::complete("runner", result.label.c_str(), startUs.count(),
                      durUs.count(), index)
            .arg("events",
                 static_cast<std::int64_t>(result.stats.eventsProcessed))
            .arg("seed", static_cast<std::int64_t>(result.seed)));
  }
  return result;
}

void Runner::notify(const RunResult& result) {
  if (!hook_) return;
  std::lock_guard<std::mutex> lock(hookMutex_);
  // A hook failure is the caller's bug, but it must not tear down the pool
  // or poison the batch's results: contain it, make it visible, count it.
  try {
    hook_(result);
  } catch (const std::exception& e) {
    engineCounters_.inc(obs::Counter::RunnerHookExceptions);
    SPS_LOG_WARN("onRunComplete hook threw for run " << result.index << " ("
                                                     << result.label
                                                     << "): " << e.what());
  } catch (...) {
    engineCounters_.inc(obs::Counter::RunnerHookExceptions);
    SPS_LOG_WARN("onRunComplete hook threw for run "
                 << result.index << " (" << result.label
                 << "): non-std exception");
  }
}

RunResult Runner::runOne(const RunRequest& request) {
  if (progress_ != nullptr) progress_->beginBatch(1);
  RunResult result = execute(request, 0);
  notify(result);
  return result;
}

std::vector<RunResult> Runner::runAll(std::vector<RunRequest> requests) {
  std::vector<RunResult> results(requests.size());
  if (requests.empty()) return results;
  if (progress_ != nullptr) progress_->beginBatch(requests.size());

  // Inline path: one thread, or nothing to overlap.
  if (threads_ == 1 || requests.size() == 1) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      results[i] = execute(requests[i], i);
      notify(results[i]);
    }
    return results;
  }

  if (!pool_) pool_ = std::make_unique<util::ThreadPool>(threads_);
  std::vector<std::future<void>> futures;
  futures.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    futures.push_back(pool_->submit([this, &requests, &results, i] {
      results[i] = execute(requests[i], i);
      notify(results[i]);
    }));
  }
  // Drain the whole batch before surfacing any failure: results/requests
  // live on this stack frame, so no task may outlive this scope.
  for (std::future<void>& f : futures) f.wait();
  // Rethrow the lowest-index failure so error reporting is deterministic.
  for (std::future<void>& f : futures) f.get();
  return results;
}

void writeRunResultsJson(std::ostream& os,
                         const std::vector<RunResult>& results,
                         const metrics::JsonOptions& options) {
  metrics::JsonWriter w(os, options.indent);
  w.beginObject()
      .field("schemaVersion", std::int64_t{1})
      .field("runCount", static_cast<std::uint64_t>(results.size()));
  w.key("results").beginArray();
  for (const RunResult& r : results) {
    w.beginObject()
        .field("index", static_cast<std::uint64_t>(r.index))
        .field("label", r.label)
        .field("seed", r.seed)
        .field("policy", r.policyName)
        .field("trace", r.traceName)
        .field("wallSeconds", r.wallSeconds);
    w.key("stats");
    metrics::writeRunStatsJson(w, r.stats, options);
    w.endObject();
  }
  w.endArray().endObject();
}

std::string runResultsJson(const std::vector<RunResult>& results,
                           const metrics::JsonOptions& options) {
  std::ostringstream os;
  writeRunResultsJson(os, results, options);
  return os.str();
}

void writeRunResultsOpenMetrics(std::ostream& os,
                                const std::vector<RunResult>& results) {
  std::vector<metrics::OpenMetricsEntry> entries;
  entries.reserve(results.size());
  for (const RunResult& r : results) {
    metrics::OpenMetricsEntry entry;
    entry.stats = &r.stats;
    entry.run = r.index;
    entry.label = r.label;
    entry.seed = r.seed;
    entry.wallSeconds = r.wallSeconds;
    entries.push_back(std::move(entry));
  }
  metrics::writeOpenMetrics(os, entries);
}

}  // namespace sps::core
