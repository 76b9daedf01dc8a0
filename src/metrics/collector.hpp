// Collector — turns a finished Simulator into a RunStats record.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "metrics/job_record.hpp"
#include "obs/counters.hpp"
#include "obs/timeline.hpp"
#include "sim/simulator.hpp"

namespace sps::metrics {

struct RunStats {
  std::string policyName;
  std::string traceName;
  std::vector<JobResult> jobs;
  /// Busy processor-seconds (incl. overhead phases) / (procs x span).
  double utilization = 0.0;
  /// Pure compute processor-seconds / (procs x span) — overhead excluded.
  double usefulUtilization = 0.0;
  /// Utilization over the arrival window only (first..last submission) —
  /// the steady-state basis used for the load-variation figures. The full
  /// `utilization` divides by the makespan and therefore charges each
  /// scheduler for its drain tail after the last arrival.
  double steadyUtilization = 0.0;
  /// First submission to last completion, seconds.
  Time span = 0;
  std::uint64_t suspensions = 0;
  std::uint64_t eventsProcessed = 0;
  /// The run's obs counter block (always collected, with or without a trace
  /// sink).
  obs::Counters counters;
  /// Sim-clock time series, filled only when SimulationOptions::timeline is
  /// enabled (empty otherwise — and omitted from the JSON export).
  obs::TimelineData timeline;

  [[nodiscard]] double meanBoundedSlowdown() const;
  [[nodiscard]] double meanTurnaround() const;
};

/// Harvest per-job results and machine statistics from a completed run.
/// Requires Simulator::run() to have finished.
[[nodiscard]] RunStats collect(const sim::Simulator& simulator,
                               const std::string& policyName);

}  // namespace sps::metrics
