// Job and Trace — the static workload model.
//
// A rigid parallel job in the paper's model: a rectangle in the 2D schedule
// whose height is the (fixed) number of processors requested and whose width
// is the run time. Users supply an estimate; the scheduler only ever sees the
// estimate, while completion is governed by the actual run time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace sps::workload {

struct Job {
  JobId id = kInvalidJob;
  /// Submission (arrival) time, seconds from trace start.
  Time submit = 0;
  /// Actual run time, seconds. > 0.
  Time runtime = 0;
  /// User-estimated run time (wall-clock request), seconds. The library
  /// enforces estimate >= runtime (jobs are killed at their wall-clock limit
  /// on real systems, so an "underestimated" job's runtime is the estimate).
  Time estimate = 0;
  /// Processors requested (rigid). >= 1.
  std::uint32_t procs = 1;
  /// Resident memory per processor, MB. Drives the suspension overhead model
  /// of Section V-A (write-out to local disk at 2 MB/s per processor).
  std::uint32_t memoryMb = 0;
};

/// A workload trace: jobs sorted by non-decreasing submit time, plus the
/// machine it was recorded on.
struct Trace {
  std::string name;
  std::uint32_t machineProcs = 0;
  std::vector<Job> jobs;
};

/// The per-job rule every ingest path applies (validateTrace and
/// sim::Simulator::submit): runtime > 0, estimate >= runtime, procs in
/// [1, machineProcs] and submit >= 0. Returns why `job` breaks it, or
/// nullptr. Each caller adds its own message context and ordering checks.
[[nodiscard]] const char* jobRowDefect(const Job& job,
                                       std::uint32_t machineProcs);

/// Validate a trace: ids dense 0..n-1, jobs sorted by submit, and every job
/// passing jobRowDefect. Throws InputError.
void validateTrace(const Trace& trace);

/// Total work (runtime x procs) over all jobs, processor-seconds.
[[nodiscard]] double totalWork(const Trace& trace);

/// Offered load: totalWork / (machineProcs x submit span). The span runs
/// from the first submit to the last submit plus that job's runtime.
[[nodiscard]] double offeredLoad(const Trace& trace);

}  // namespace sps::workload
