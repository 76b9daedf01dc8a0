// VictimIndex — maintained per-category ordering of the *running* jobs,
// the fourth piece of the scheduling kernel.
//
// The SS/TSS preemption pass asks, for every idle candidate, "which running
// jobs could it preempt?" — and the paper's Section IV eligibility rules
// answer per victim: the suspension-factor ratio test, the half-width rule,
// and (for TSS) a per-category suspension limit. The seed code re-sorted
// the full running set and re-tested every member for every candidate,
// which BENCH_engine.json shows as millions of victimTests per run.
//
// The pivotal property making an index possible: a job's suspension
// priority (xfactor, Eq. 2) *freezes while it runs* — wait does not accrue
// on-processor — so the running set's priority order never drifts between
// transitions. Each Table-I category (by the scheduler-visible estimate x
// width classification) keeps its members sorted by (frozen xfactor, id),
// maintained by a state-change observer. The pass's per-victim tests then
// collapse into per-category range queries:
//
//   * SF ratio  — victims failing `priority < SF * xfactor` form a suffix
//     of the sorted order: one binary search per category.
//   * TSS limit — protected victims (`xfactor >= limit`) are likewise a
//     suffix; the boundary is a second binary search.
//   * half-width — width bands are constant within a category, so whole
//     categories pass or fail wholesale; only the unbounded Very-Wide band
//     (and the preemptor's own boundary band) needs per-entry width checks.
//
// A lazily maintained prefix sum of widths over each category's eligible
// prefix gives an upper bound on the processors a candidate could free —
// candidates whose bound cannot cover their shortfall are dismissed with
// zero per-victim work (the dominant case at high load).
//
// Pass-start snapshot semantics: the reference implementation sorts the
// running set once at the top of the pass, so jobs *started mid-pass* are
// invisible to later candidates. beginPass() captures a serial stamp;
// entries inserted at or after it must be skipped by enumeration. (Jobs
// *removed* mid-pass leave the index immediately — matching the reference,
// whose per-victim state test rejects no-longer-running victims.)
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sched/core/reservation_ledger.hpp"
#include "util/types.hpp"

namespace sps::sim {
class Simulator;
enum class JobState : std::uint8_t;
}  // namespace sps::sim

namespace sps::sched::kernel {

class VictimIndex {
 public:
  struct Entry {
    double xfactor = 0.0;  ///< frozen suspension priority (Eq. 2)
    JobId job = 0;
    std::uint32_t procs = 0;  ///< width, for gain sums and width checks
    std::uint64_t serial = 0; ///< insertion stamp; pass-visibility filter
  };

  static constexpr std::size_t kCategories = 16;

  /// Bind to a simulator: clears all state, sizes the owner map to the
  /// machine, and registers the state-change observer that keeps the
  /// per-category orders current. Call from onSimulationStart. An index
  /// serves one simulator at a time and must outlive it.
  void attach(sim::Simulator& simulator);

  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::size_t size() const { return count_; }

  /// Minimum frozen priority over ALL running jobs (every category, no
  /// serial filter); +infinity when empty. O(categories). This is the basis
  /// of the pass gate: an idle candidate below SF x this value can preempt
  /// nothing at all.
  [[nodiscard]] double minPriority() const;

  /// Snapshot stamp for one preemption pass: entries with
  /// serial >= the returned stamp were started mid-pass and must be
  /// skipped by enumeration (the reference's pass-start sort would not
  /// contain them).
  [[nodiscard]] std::uint64_t beginPass() const { return serial_; }

  /// The category's members, ascending (frozen xfactor, id).
  [[nodiscard]] const std::vector<Entry>& category(std::size_t cat) const {
    return cats_[cat];
  }

  /// Length of the category prefix passing the SF ratio test for a
  /// preemptor of priority `preemptorPriority`: the first index whose
  /// entry fails `preemptorPriority < sf * xfactor` (the exact float
  /// predicate of the scan this replaces). Entries beyond it are a
  /// monotone ineligible suffix.
  [[nodiscard]] std::size_t sfBoundary(std::size_t cat,
                                       double preemptorPriority,
                                       double sf) const;

  /// Length of the category prefix below a TSS protection limit: the first
  /// index with xfactor >= limit.
  [[nodiscard]] std::size_t limitBoundary(std::size_t cat,
                                          double limit) const;

  /// Sum of widths over category[0, end) — an upper bound on the
  /// processors preempting that whole prefix could free. Lazily
  /// recomputed per category after churn.
  [[nodiscard]] std::uint32_t gainPrefix(std::size_t cat,
                                         std::size_t end) const;

  /// The running job holding processor `proc`, or kInvalidJob if it is
  /// free or held by a Suspending job. Live (not pass-snapshotted) —
  /// matching the reference's live occupant scan on the re-entry path.
  [[nodiscard]] JobId ownerOf(std::uint32_t proc) const {
    return owner_[proc];
  }

 private:
  void onTransition(const sim::Simulator& s, JobId id, sim::JobState from,
                    sim::JobState to);
  void insert(const sim::Simulator& s, JobId id);
  void remove(const sim::Simulator& s, JobId id);

  std::array<std::vector<Entry>, kCategories> cats_;
  /// prefix_[cat][i] = sum of widths of cats_[cat][0, i). Rebuilt on
  /// demand; mutable because queries are logically const.
  mutable std::array<std::vector<std::uint32_t>, kCategories> prefix_;
  mutable std::array<bool, kCategories> prefixDirty_{};
  std::vector<JobId> owner_;       ///< per processor; kInvalidJob if free
  std::vector<std::uint8_t> catOf_;  ///< per job: category at insertion
  std::uint64_t serial_ = 0;
  std::size_t count_ = 0;
  /// Distinguishes the simulator currently served from a stale one still
  /// holding our observer (a policy may be re-attached across runs).
  const sim::Simulator* attached_ = nullptr;
};

}  // namespace sps::sched::kernel
