// The perfbench workloads and the inputs they are built from. All are
// synthetic SDSC streams from workload::generateTrace seeded with the
// benchmark's --seed, so one seed always gives the same inputs. Why each
// workload exists is in perfbench/README.md and BENCHMARK.json.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/simulation.hpp"
#include "workload/job.hpp"

namespace perfbench {

/// Emits a protocol line after the i-th submission when i % every ==
/// offset; every == 0 never emits.
struct Stride {
  std::uint32_t every = 0;
  std::uint32_t offset = 0;

  [[nodiscard]] bool hits(std::size_t i) const {
    return every != 0 && i % every == offset;
  }
};

/// The read and cancel lines a service replay interleaves with the
/// submissions.
struct ServiceMix {
  Stride query;
  Stride cancel;
  Stride stats;
};

struct Workload {
  std::string name;
  std::string policy;         ///< policy token, as sched::specFromToken reads
  std::size_t jobs = 0;
  double load = 0.0;          ///< offered load; 0 keeps the preset's
  bool service = false;       ///< timed through SchedulerService, not batch
  ServiceMix mix;             ///< lines of this workload's service replay
};

[[nodiscard]] const std::vector<Workload>& workloads();
/// nullptr when no workload has that name.
[[nodiscard]] const Workload* findWorkload(std::string_view name);

/// The workload's trace for `seed`; `jobs` = 0 keeps the workload's length.
[[nodiscard]] sps::workload::Trace makeTrace(const Workload& w,
                                             std::uint64_t seed,
                                             std::size_t jobs = 0);
[[nodiscard]] sps::core::PolicySpec makeSpec(const Workload& w);

/// The trace as one protocol script: each submission in trace order, the
/// mix's lines after it, and a final `drain`.
[[nodiscard]] std::string renderScript(const sps::workload::Trace& trace,
                                       const ServiceMix& mix);

}  // namespace perfbench
