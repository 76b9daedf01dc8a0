#include "workload/job.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "util/check.hpp"

namespace sps::workload {

const char* jobRowDefect(const Job& job, std::uint32_t machineProcs) {
  if (job.runtime <= 0) return "runtime must be positive";
  if (job.estimate < job.runtime)
    return "estimate below runtime (jobs are killed at their wall-clock "
           "limit; clamp first)";
  if (job.procs == 0) return "procs must be >= 1";
  if (job.procs > machineProcs) return "procs exceed machine size";
  if (job.submit < 0) return "submit time must be >= 0";
  return nullptr;
}

void validateTrace(const Trace& trace) {
  if (trace.machineProcs == 0)
    throw InputError("trace '" + trace.name + "': machineProcs == 0");
  Time prevSubmit = std::numeric_limits<Time>::min();
  for (std::size_t i = 0; i < trace.jobs.size(); ++i) {
    const Job& j = trace.jobs[i];
    // The context prefix is formatted only once a check has failed.
    const auto reject = [&](const char* why) {
      throw InputError("trace '" + trace.name + "' job index " +
                       std::to_string(i) + " (id " + std::to_string(j.id) +
                       "): " + why);
    };
    if (j.id != static_cast<JobId>(i)) reject("ids must be dense 0..n-1");
    if (j.submit < prevSubmit) reject("jobs must be sorted by submit time");
    if (const char* why = jobRowDefect(j, trace.machineProcs)) reject(why);
    prevSubmit = j.submit;
  }
}

double totalWork(const Trace& trace) {
  double w = 0.0;
  for (const Job& j : trace.jobs)
    w += static_cast<double>(j.runtime) * static_cast<double>(j.procs);
  return w;
}

double offeredLoad(const Trace& trace) {
  if (trace.jobs.empty() || trace.machineProcs == 0) return 0.0;
  const Time first = trace.jobs.front().submit;
  Time last = first;
  for (const Job& j : trace.jobs) last = std::max(last, j.submit + j.runtime);
  const double span = static_cast<double>(last - first);
  if (span <= 0.0) return 0.0;
  return totalWork(trace) / (static_cast<double>(trace.machineProcs) * span);
}

}  // namespace sps::workload
