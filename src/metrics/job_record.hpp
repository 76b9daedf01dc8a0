// JobResult — the per-job outcome record the evaluation metrics are built
// from, plus the paper's two metrics (Section II-B).
#pragma once

#include <cstdint>

#include "util/types.hpp"

namespace sps::metrics {

/// Fields ordered so the three 32-bit ones pack together: 64 bytes.
struct JobResult {
  JobId id = kInvalidJob;
  std::uint32_t procs = 1;
  std::uint32_t suspendCount = 0;
  Time submit = 0;
  Time runtime = 0;
  Time estimate = 0;
  Time firstStart = kNoTime;
  Time finish = kNoTime;
  /// Seconds spent in suspension write-out + resume read-back phases.
  Time overheadTotal = 0;

  /// Turnaround time: completion - submission (includes suspended periods).
  [[nodiscard]] Time turnaround() const { return finish - submit; }

  /// Total time not spent computing: turnaround - runtime. For preempted
  /// jobs this folds in suspended time and overhead.
  [[nodiscard]] Time waitTime() const { return turnaround() - runtime; }
};

/// Threshold below which a job's runtime is clamped for the slowdown metric,
/// "to limit the influence of very short jobs" (Eq. 1).
inline constexpr Time kBoundedSlowdownThreshold = 10;

/// Bounded slowdown, Eq. 1 of the paper:
///   max( (wait + runtime) / max(runtime, 10), 1 ).
[[nodiscard]] double boundedSlowdown(const JobResult& job);

/// Unbounded slowdown (turnaround / runtime), for diagnostics.
[[nodiscard]] double rawSlowdown(const JobResult& job);

/// Well-estimated split of Section V: estimate no more than twice the
/// actual runtime.
[[nodiscard]] bool isWellEstimated(const JobResult& job);

}  // namespace sps::metrics
