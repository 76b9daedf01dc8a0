// VictimIndex — the *running* jobs in one maintained order, the fourth
// piece of the scheduling kernel.
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
// transitions. The index keeps every running job in one vector sorted by
// (frozen xfactor, id), each entry tagged with its Table-I category (by the
// scheduler-visible estimate x width classification), maintained by a
// state-change observer. The pass's per-victim tests then collapse into
// cuts of that order:
//
//   * SF ratio  — victims failing `priority < SF * xfactor` form a suffix
//     of the (frozen xfactor, id) order.
//   * TSS limit — protected victims (`xfactor >= limit[category]`) are a
//     suffix of each category, so dropping them keeps the order.
//   * half-width — width bands are constant within a category, so each
//     entry's width class decides it wholesale; only the unbounded
//     Very-Wide band (and the preemptor's own boundary band) needs
//     per-entry width checks.
//
// VictimSteps (below) filters the order by the TSS limits in one pass and
// keeps prefix sums of widths per width-reach class, which bound the
// processors a candidate could free — candidates whose bound cannot cover
// their shortfall are dismissed with zero per-victim work (the dominant
// case at high load).
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
    std::uint8_t category = 0;    ///< Category16 index, keys the TSS limit
    std::uint8_t widthClass = 0;  ///< the category's workload::WidthClass
  };

  static constexpr std::size_t kCategories = 16;

  /// Bind to a simulator: sizes the owner map to the machine and
  /// registers the state-change observer that keeps the order current.
  /// Call once, from onSimulationStart: an index serves the one run its
  /// policy drives and must outlive it.
  void attach(sim::Simulator& simulator);

  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Minimum frozen priority over ALL running jobs (every category, no
  /// serial filter); +infinity when empty. O(1). This is the basis of the
  /// pass gate: an idle candidate below SF x this value can preempt
  /// nothing at all.
  [[nodiscard]] double minPriority() const;

  /// Snapshot stamp for one preemption pass: entries with
  /// serial >= the returned stamp were started mid-pass and must be
  /// skipped by enumeration (the reference's pass-start sort would not
  /// contain them).
  [[nodiscard]] std::uint64_t beginPass() const { return serial_; }

  /// Every running job, ascending (frozen xfactor, id).
  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }

  /// The running job holding processor `proc`, or kInvalidJob if it is
  /// free or held by a Suspending job. Live (not pass-snapshotted) —
  /// matching the reference's live occupant scan on the re-entry path.
  [[nodiscard]] JobId ownerOf(std::uint32_t proc) const {
    return owner_[proc];
  }

 private:
  void insert(const sim::Simulator& s, JobId id);
  void remove(const sim::Simulator& s, JobId id);

  std::vector<Entry> entries_;
  std::vector<JobId> owner_;       ///< per processor; kInvalidJob if free
  std::uint64_t serial_ = 0;
};

/// The victims one preemption pass may draw on, as a step function of the
/// preemptor's priority. Every running job inside its category's TSS cut,
/// in the index's order, ascending by (frozen xfactor, id) — the
/// reference pass's runningAsc order. The SF test `p < sf * xfactor`
/// rejects a suffix of it, so a preemptor of priority p may draw on a
/// prefix; alongside the array sit, per width-reach class, prefix sums of
/// the widths a preemptor of that reach may take and the index of the next
/// entry it may take. A candidate's gain bound and wake-up priority are
/// then one binary search plus two lookups. The TSS cut and the frozen
/// xfactors stay put between transitions, so a pass builds the steps once
/// and again after each of its own actions.
class VictimSteps {
 public:
  /// Width-reach classes: reach r may take victims whose category's width
  /// class (workload::WidthClass) is at most r.
  static constexpr std::size_t kReaches = 4;

  struct Cut {
    std::size_t end;      ///< entries passing !(p < sf * xfactor)
    std::uint32_t bound;  ///< summed widths of reachable entries in [0, end)
    /// xfactor of the first reachable entry at or past `end`, +infinity if
    /// none: more gain needs p to cross sf times this.
    double xNext;
  };

  /// Rebuild from `index`, keeping the members of category `cat` below
  /// the TSS protection limit `limits[cat]` (+infinity: no limit): one
  /// filtered pass over the index's order, no sort.
  void build(const VictimIndex& index,
             const std::array<double, VictimIndex::kCategories>& limits);

  [[nodiscard]] Cut cut(double priority, double sf, int reach) const;

  /// The inverse of cut's gain bound: the lowest priority whose reach
  /// prefix gains at least `need` processors, as the product cut tests.
  /// For every p, cut(p, sf, reach).bound >= need exactly when
  /// !(p < threshold(need, sf, reach)); −infinity when need is 0, and
  /// +infinity when even every reachable step falls short.
  [[nodiscard]] double threshold(std::uint32_t need, double sf,
                                 int reach) const;

  /// Width-reach class of a fresh preemptor of `width`: the highest width
  /// band (workload::WidthClass) whose band minimum its doubled width
  /// covers. Under the half-width rule a victim of band q is out of reach
  /// exactly when q > reach (2 x width < band minimum); without it every
  /// band is in reach.
  [[nodiscard]] static int reachOf(std::uint32_t width, bool halfWidthRule);

  [[nodiscard]] const std::vector<VictimIndex::Entry>& steps() const {
    return steps_;
  }

 private:
  std::vector<VictimIndex::Entry> steps_;
  /// gain_[r][i]: widths of the entries of class <= r in steps_[0, i).
  std::array<std::vector<std::uint32_t>, kReaches> gain_;
  /// next_[r][i]: first index >= i holding an entry of class <= r.
  std::array<std::vector<std::uint32_t>, kReaches> next_;
};

}  // namespace sps::sched::kernel
