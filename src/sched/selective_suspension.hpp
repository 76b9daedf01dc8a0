// Selective Suspension (SS) and Tunable Selective Suspension (TSS) —
// Section IV of the paper, the primary contribution.
//
// Priority-based local preemption on top of reservation-free backfilling:
//
//  * Suspension priority = expansion factor (Eq. 2): (wait + estimate) /
//    estimate, where wait accrues only while queued or suspended. It grows
//    fast for short jobs, slowly for long jobs, and grows without bound —
//    that is the starvation-freedom argument that lets SS drop reservation
//    guarantees entirely.
//  * An idle job may suspend a running job only if its priority is at least
//    SF (the suspension factor) times the running job's priority. SF = 2
//    provably eliminates repeated mutual suspension of equal-length tasks;
//    smaller SF trades more suspensions for better short-job service
//    (Section IV-A, Figs. 4-6).
//  * Half-width rule: a preemptor must request at least half the processors
//    of each victim, so narrow jobs cannot evict wide ones (wide jobs
//    already struggle to collect victims; Section IV-B).
//  * Reentry: a suspended job must reclaim its exact processors (local
//    preemption, no migration). When it attempts reentry it may preempt the
//    current occupants of those processors under the same priority test, and
//    the half-width rule is waived so a narrow job stranded under a wide one
//    is not stuck until the wide job completes (Section IV-C).
//  * The preemption routine runs every minute (Section IV-B); plain
//    dispatch (start whatever fits, highest priority first, skipping past
//    blocked jobs — backfilling without guarantees) runs on every event.
//  * TSS (Section IV-E): a running job whose priority already exceeds its
//    category limit (1.5 x that category's average slowdown under NS) may
//    not be preempted, which caps worst-case slowdown/turnaround without
//    hurting the averages.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "sched/core/idle_lines.hpp"
#include "sched/core/idle_order.hpp"
#include "sched/core/occupancy_record.hpp"
#include "sched/core/victim_index.hpp"
#include "sim/policy.hpp"
#include "sim/procset.hpp"
#include "workload/category.hpp"

namespace sps::sched {

/// How fresh starts treat processors "owed" to suspended jobs (which must
/// resume on their exact original sets — local preemption, no migration).
enum class OwedProcsPolicy {
  /// Ignore ownership: allocate lowest-numbered free processors.
  Squat,
  /// Draw from un-owed processors first, dip into owed sets for shortfall.
  Prefer,
  /// Hard lease: fresh jobs never take owed processors; only the preemption
  /// path may (a preemptor consumes its own victims' processors). It is
  /// required to reproduce the paper's utilization-vs-load results
  /// (Figs. 35/38) — see bench_ablation_allocation — but it does not bound
  /// an owner's wait: at CTC load 0.85 with 32k jobs, 464 of 2,730 owners
  /// resumed after the latest estimated end of the jobs running on their
  /// sets, by up to 430,300 s, and at 128k jobs SS reaches 57.4%
  /// utilization against EASY's 84.5%. The leak is not yet attributed.
  Lease,
};

/// Period of the preemption routine: the paper's 1 minute (Section IV-B).
inline constexpr Time kPreemptionInterval = kMinute;

/// Online TSS: completions a category needs before it protects anything.
inline constexpr std::size_t kTssOnlineMinSamples = 20;

struct SsConfig {
  /// Minimum ratio of preemptor priority to victim priority (SF). The paper
  /// evaluates 1.5, 2, and 5; values below 1 allow priority inversions and
  /// are rejected.
  double suspensionFactor = 2.0;

  /// Enforce the half-width rule for fresh (never-suspended) preemptors.
  bool halfWidthRule = true;

  /// Fresh-start discipline for processors owed to suspended jobs.
  OwedProcsPolicy owedProcs = OwedProcsPolicy::Lease;

  /// Migratable-job model (Parsons & Sevcik, paper related work): a
  /// suspended job may restart on ANY free processors instead of its exact
  /// original set. The paper's main model — and the default — is local
  /// preemption (no migration); this flag exists to quantify what the
  /// no-migration constraint costs (bench_ablation_migration).
  bool migratableJobs = false;

  /// TSS: per-Category16 victim-protection limits. A running job whose
  /// current priority >= limit of its category cannot be suspended. The
  /// category is computed from the *estimate* (the only runtime signal a
  /// real scheduler has). std::nullopt = plain (untuned) SS.
  std::optional<std::array<double, workload::kNumCategories16>> tssLimits;

  /// Online-adaptive TSS (extension): instead of pre-calibrated limits,
  /// maintain a running average of completed jobs' bounded slowdowns per
  /// category and protect victims above multiplier x that average. A
  /// category protects nothing until it has kTssOnlineMinSamples
  /// completions. Mutually exclusive with tssLimits.
  std::optional<double> tssOnlineMultiplier;

  /// Kernel mode (sched/core). Incremental runs the victim index, the
  /// idle-line tick gate, the occupancy record (local preemption only) and
  /// the fit-filtered idle walks; Rebuild gathers and sorts every idle
  /// candidate and re-tests every victim, the reference both must match.
  kernel::KernelMode kernelMode = kernel::KernelMode::Incremental;
};

class SelectiveSuspension final : public sim::SchedulingPolicy {
 public:
  explicit SelectiveSuspension(SsConfig config);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] const SsConfig& config() const { return config_; }

  void onSimulationStart(sim::Simulator& simulator) override;
  void onJobArrival(sim::Simulator& simulator, JobId job) override;
  void onJobCompletion(sim::Simulator& simulator, JobId job) override;
  void onSuspendDrained(sim::Simulator& simulator, JobId job) override;
  void onTimer(sim::Simulator& simulator, std::uint64_t tag) override;
  /// Idle walks gather their candidates from the simulator's lists or the
  /// idle-line index, which both drop a cancelled job like any other
  /// departure; the only policy-owned reference to repair is a capacity
  /// claim held by the cancelled job.
  [[nodiscard]] bool supportsCancel() const override { return true; }
  void onJobCancelled(sim::Simulator& simulator, JobId job) override;
  void onSimulationEnd(sim::Simulator& simulator) override;

  /// Preemptions initiated (== victims suspended) so far.
  [[nodiscard]] std::uint64_t preemptionsInitiated() const {
    return preemptions_;
  }

  /// Current TSS victim-protection limit applying to `job`: the static
  /// per-category limit (tssLimits), or the online average once the job's
  /// category has enough samples; nullopt when no protection applies
  /// (plain SS, or an online category still warming up). Evaluated against
  /// the same state victimEligible sees, so the sps::check TSS-bound
  /// oracle can assert every suspension honoured it.
  [[nodiscard]] std::optional<double> victimProtectionLimit(
      const sim::Simulator& s, JobId job) const;

 private:
  /// TSS protection limit of an estimate-based category, as
  /// victimProtectionLimit reports it for a job of that category.
  [[nodiscard]] std::optional<double> categoryLimit(std::size_t category) const;

  /// A preemptor that paid for suspensions whose processors are still
  /// draining (only arises with an overhead model). The claim fences the
  /// capacity it is owed against other starters.
  struct Claim {
    JobId job;
    bool exact;  ///< reentry claim: the job's saved processor set is fenced
  };

  [[nodiscard]] bool isClaimant(JobId id) const;
  /// Sum of processor counts owed to count-based (fresh) claims.
  [[nodiscard]] std::uint32_t claimedCount(const sim::Simulator& s) const;
  /// Union of processor sets fenced by exact (reentry) claims.
  [[nodiscard]] sim::ProcSet claimedSet(const sim::Simulator& s) const;
  /// True when `procs` meets a set fenced by an exact (reentry) claim.
  [[nodiscard]] bool fencedByClaim(const sim::Simulator& s,
                                   const sim::ProcSet& procs) const;

  /// Union of processor sets owed to suspended jobs (they must resume on
  /// exactly these). Fresh starts avoid them when possible so suspended
  /// jobs are not stranded behind squatters. Served from the simulator's
  /// refcounted suspendedOwedSet() aggregate — O(1), audited by sps::check.
  [[nodiscard]] const sim::ProcSet& suspendedSets(
      const sim::Simulator& s) const;

  /// Where a start may take processors, as Simulator::startJob's two
  /// sets: never from `hard`, from `soft` only for the shortfall.
  struct Placement {
    sim::ProcSet hard;
    const sim::ProcSet& soft;
  };

  /// The one reader of OwedProcsPolicy. A fresh start fences the exact
  /// claims and, under Lease, the owed sets; under Prefer the owed sets are
  /// soft; under Squat they are ignored. A count claimant whose victims
  /// have drained (`paidClaimant`) places as under Prefer whatever the
  /// discipline: its victims' processors are owed to them now.
  [[nodiscard]] Placement placement(const sim::Simulator& s,
                                    bool paidClaimant = false) const;

  /// Free processors a fresh preemptor may use now: free, less the fresh
  /// placement's hard fence, less the count claims. Counts one fence scan.
  [[nodiscard]] std::uint32_t freshFreeCount(const sim::Simulator& s) const;

  /// Rebuild the fresh path's state for the current machine: freeNow_ and
  /// victimSteps_ at the current TSS limits.
  void refreshFreshPath(const sim::Simulator& s);

  /// Victim-protection test: priority ratio, TSS limit, and (for fresh
  /// preemptors) the half-width rule. Callers count the test
  /// (policy.victimTests).
  [[nodiscard]] bool victimEligible(const sim::Simulator& s, JobId victim,
                                    double preemptorPriority,
                                    std::uint32_t preemptorWidth,
                                    bool reentry) const;

  /// Start/resume everything that fits on unclaimed free processors,
  /// claimants first, then the idle jobs in priority order (Eq. 2; ties by
  /// submit time, then id). Runs on every event. Incremental mode gathers
  /// only the jobs that can fit the walk's starting capacity: queued jobs
  /// from the idle-line index, and under local preemption the suspended
  /// jobs whose owed sets no job holds, from the occupancy record. Every
  /// suspended job is read only in Rebuild mode and in the migratable
  /// model (policy.resumeWalkReads counts them).
  void dispatch(sim::Simulator& simulator);

  /// The paper's preemption routine (pseudocode, Section IV-C). Runs on the
  /// periodic timer; dispatches by kernel mode.
  void preemptionPass(sim::Simulator& simulator);
  /// Reference shape: sort the whole running set, test every victim per
  /// candidate. The bit-identical baseline the golden suite pins.
  void preemptionPassRebuild(sim::Simulator& simulator);
  /// Indexed shape: one walk over the gate's report in Eq. 2 order, each
  /// candidate evaluated once: a fresh one against VictimSteps' gain bound,
  /// a reentry one against its set's cached floor in the occupancy record
  /// (SF x the highest running priority there) before any occupant is
  /// scanned. Same decisions as Rebuild (argued inline), a fraction of the
  /// work. Starts from the fences and steps the gate built.
  void preemptionPassIncremental(sim::Simulator& simulator);

  /// Tick gate (Incremental only): one idle-line query that both decides
  /// skippability and gathers the pass's working set. Returns true when
  /// this tick's pass is provably a no-op — every idle candidate's
  /// priority is below its own threshold (currentThresholds). Otherwise
  /// tickPrefix_ holds the candidates at or above their thresholds. Caches
  /// the verdict with a transition stamp and an algebraic horizon so
  /// consecutive quiet ticks skip in O(1).
  [[nodiscard]] bool tickPassSkippable(sim::Simulator& simulator);

  /// The report thresholds for the current fresh-path state, by idle state
  /// and width class: SF x the weakest running priority for reentry, the
  /// gain bound's inverse at its width class for the fresh path (which
  /// suspended jobs take in the migratable model).
  void currentThresholds(kernel::IdleLineIndex::Thresholds& out) const;

  /// After the walk's candidate at tickPrefix_[acted] acted: where a class
  /// threshold fell below listedAt_, merge into the unwalked rest of
  /// tickPrefix_ the newly reported lines that sort after that candidate
  /// and were idle at pass start, and lower listedAt_.
  void mergeFallenThresholds(const sim::Simulator& simulator,
                             std::size_t acted);

  /// Suspend every occupant of reentry candidate `id`'s processors, then
  /// claim them (some still drain) or resume it. Shared by both pass shapes.
  void executeReentryPreemption(sim::Simulator& simulator, JobId id,
                                const std::vector<JobId>& occupants);

  /// Suspend `victims` on behalf of preemptor `id` needing `width` procs
  /// beyond `freeNow`: widest-first until covered, then claim or place the
  /// preemptor. The tail shared verbatim by both pass shapes.
  void executeFreshPreemption(sim::Simulator& simulator, JobId id,
                              std::uint32_t width, std::uint32_t freeNow,
                              std::vector<JobId>& victims);

  void armTick(sim::Simulator& simulator);

  SsConfig config_;
  kernel::VictimIndex victimIndex_;
  kernel::IdleLineIndex idleLines_;
  /// Who holds each suspended job's owed set: the resume walk's unheld
  /// list and the reentry floors. Attached under local preemption only.
  kernel::OccupancyRecord occupancy_;
  /// The fresh path's state: the victim step function and the fresh free
  /// count. Built by the tick gate for the pass-start state and rebuilt
  /// after each of the pass's actions.
  kernel::VictimSteps victimSteps_;
  std::uint32_t freeNow_ = 0;
  std::vector<Claim> claims_;
  /// Tick-gate cache: while SimTransitions still equals gateStamp_ and
  /// now < gateSkipUntil_, the last gate verdict (skip) still holds.
  std::uint64_t gateStamp_ = ~std::uint64_t{0};
  Time gateSkipUntil_ = kNoTime;
  /// Gate carryover into the pass: idle candidates at or above their own
  /// thresholds. The pass sorts it in Eq. 2 order and walks it, merging in
  /// lines whose class threshold one of its actions lowered.
  std::vector<kernel::IdleLineIndex::Hit> tickPrefix_;
  /// The thresholds tickPrefix_ is complete at: the gate's, lowered by the
  /// pass's merges.
  kernel::IdleLineIndex::Thresholds listedAt_{};
  /// The victims the pass suspended (a merge skips them: they were running
  /// at pass start).
  std::vector<JobId> passVictims_;
  /// Earliest time a below-threshold candidate can cross its threshold
  /// (from the gate query) / earliest time any examined candidate's failed
  /// arm can go live via an SF-boundary crossing (from a no-op pass). Their
  /// min extends gateSkipUntil_ past passes that ran but did nothing.
  Time sweepHorizon_ = kNoTime;
  Time passHorizon_ = kNoTime;
  /// Dispatch-walk candidates, reused across walks.
  std::vector<kernel::IdleLineIndex::Hit> walkScratch_;
  /// Pass scratch, reused across ticks to avoid per-pass allocation.
  std::vector<JobId> occupantsScratch_;
  std::vector<JobId> victimsScratch_;
  bool tickArmed_ = false;
  std::uint64_t preemptions_ = 0;
  /// Online-TSS state: running average slowdown of completed jobs per
  /// estimate-based category.
  std::array<std::pair<std::uint64_t, double>, workload::kNumCategories16>
      onlineSlowdowns_{};
};

}  // namespace sps::sched
