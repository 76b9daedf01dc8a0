// Machine — named-processor allocation with a busy-time integral.
//
// Owns the free/busy partition of the machine's processors, allocates
// concrete processor sets to jobs, and integrates busy processor-seconds for
// the utilization figures (Figs. 35, 38, 41–44 of the paper).
#pragma once

#include <cstdint>

#include "sim/procset.hpp"
#include "util/types.hpp"

namespace sps::sim {

class Machine {
 public:
  /// Sanity ceiling on machine size. The ProcSet representation is
  /// capacity-parametric, so this is not a storage bound — it only rejects
  /// nonsense (e.g. a sign error) before it allocates gigabytes.
  static constexpr std::uint32_t kMaxMachineProcs = 1u << 24;

  /// A machine with processors {0, ..., totalProcs-1}, all free.
  explicit Machine(std::uint32_t totalProcs);

  [[nodiscard]] std::uint32_t totalProcs() const { return total_; }
  [[nodiscard]] std::uint32_t freeCount() const { return freeCount_; }
  [[nodiscard]] std::uint32_t busyCount() const { return total_ - freeCount(); }
  [[nodiscard]] const ProcSet& freeSet() const { return free_; }

  /// Allocate `n` free processors at time `now`: the lowest-numbered ones
  /// outside both avoid sets, then the lowest-numbered ones in `softAvoid`
  /// for any shortfall, and never one in `hardAvoid`. Requires `n` free
  /// processors outside `hardAvoid`. First-fit-by-number keeps allocation
  /// deterministic and packs low processor IDs; with both sets empty (the
  /// defaults) it takes the lowest free processors without building a pool.
  ProcSet allocate(std::uint32_t n, Time now,
                   const ProcSet& hardAvoid = kNoProcs,
                   const ProcSet& softAvoid = kNoProcs);

  /// Allocate exactly `procs` (all must currently be free) — the resume path
  /// of a suspended job, which must reclaim its original processors.
  void allocateExact(const ProcSet& procs, Time now);

  /// Release `procs` (all must currently be busy).
  void release(const ProcSet& procs, Time now);

  /// Busy processor-seconds integrated from t=0 through `now`.
  [[nodiscard]] double busyProcSeconds(Time now) const;

 private:
  void advance(Time now);
  /// allocate()'s choice when a set is non-empty; allocates nothing.
  [[nodiscard]] ProcSet lowestAvoiding(std::uint32_t n,
                                       const ProcSet& hardAvoid,
                                       const ProcSet& softAvoid) const;

  std::uint32_t total_;
  ProcSet free_;
  /// Cached free_.count(); a popcount sweep per query would be O(machine
  /// words) — noticeable at 100k processors, where freeCount() gates every
  /// dispatch decision.
  std::uint32_t freeCount_;
  Time lastChange_ = 0;
  double busyIntegral_ = 0.0;
};

}  // namespace sps::sim
