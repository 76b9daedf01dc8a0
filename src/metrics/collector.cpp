#include "metrics/collector.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace sps::metrics {

double boundedSlowdown(const JobResult& job) {
  const double denom = static_cast<double>(
      std::max(job.runtime, kBoundedSlowdownThreshold));
  const double sd =
      static_cast<double>(job.waitTime() + job.runtime) / denom;
  return std::max(sd, 1.0);
}

double rawSlowdown(const JobResult& job) {
  return static_cast<double>(job.turnaround()) /
         static_cast<double>(job.runtime);
}

bool isWellEstimated(const JobResult& job) {
  return job.estimate <= 2 * job.runtime;
}

double RunStats::meanBoundedSlowdown() const {
  SPS_CHECK(!jobs.empty());
  double s = 0.0;
  for (const JobResult& j : jobs) s += boundedSlowdown(j);
  return s / static_cast<double>(jobs.size());
}

double RunStats::meanTurnaround() const {
  SPS_CHECK(!jobs.empty());
  double s = 0.0;
  for (const JobResult& j : jobs) s += static_cast<double>(j.turnaround());
  return s / static_cast<double>(jobs.size());
}

RunStats collect(const sim::Simulator& simulator,
                 const std::string& policyName) {
  RunStats stats;
  stats.policyName = policyName;
  stats.traceName = simulator.traceName();
  stats.jobs.reserve(simulator.jobCount());
  double computeProcSeconds = 0.0;
  for (JobId id = 0; id < simulator.jobCount(); ++id) {
    const workload::Job& j = simulator.job(id);
    const sim::JobExec& x = simulator.exec(j.id);
    // Cancelled jobs never completed any service; they carry no per-job
    // metrics row (slowdown/turnaround are undefined for withdrawn work).
    if (simulator.state(j.id) == sim::JobState::Cancelled) continue;
    SPS_CHECK_MSG(simulator.state(j.id) == sim::JobState::Finished,
                  "job " << j.id << " did not finish");
    JobResult r;
    r.id = j.id;
    r.submit = j.submit;
    r.runtime = j.runtime;
    r.estimate = j.estimate;
    r.procs = j.procs;
    r.firstStart = x.firstStart;
    r.finish = x.finish;
    r.suspendCount = x.suspendCount;
    r.overheadTotal = x.overheadTotal();
    SPS_CHECK_MSG(r.finish >= r.submit + r.runtime,
                  "job " << j.id << " finished before its runtime elapsed");
    stats.jobs.push_back(r);
    computeProcSeconds +=
        static_cast<double>(j.runtime) * static_cast<double>(j.procs);
  }
  stats.span = simulator.lastFinish() - simulator.firstSubmit();
  const double capacity =
      static_cast<double>(simulator.machine().totalProcs()) *
      static_cast<double>(std::max<Time>(stats.span, 1));
  stats.utilization = simulator.busyProcSeconds() / capacity;
  stats.usefulUtilization = computeProcSeconds / capacity;
  const Time window = simulator.lastSubmit() - simulator.firstSubmit();
  if (window > 0) {
    stats.steadyUtilization =
        simulator.busyProcSecondsAtLastSubmit() /
        (static_cast<double>(simulator.machine().totalProcs()) *
         static_cast<double>(window));
  }
  stats.suspensions = simulator.totalSuspensions();
  stats.eventsProcessed = simulator.eventsProcessed();
  stats.counters = simulator.counters();
  return stats;
}

}  // namespace sps::metrics
