#include "sched/selective_suspension.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "obs/trace.hpp"
#include "sched/core/idle_order.hpp"
#include "sim/simulator.hpp"

namespace sps::sched {

namespace {
constexpr std::uint64_t kTickTag = 0;

/// Scheduler-visible category of a job: computed from the user estimate,
/// the only runtime signal available before completion.
std::size_t estimateCategory(const workload::Job& j) {
  return workload::category16(j.estimate, j.procs);
}

/// Inclusive processor-count band of a Table-I category's width class.
/// Within a VictimIndex category every member's width falls in this band,
/// so the half-width rule often resolves for the whole category at once.
struct WidthBand {
  std::uint32_t min;
  std::uint32_t max;   ///< meaningless when unbounded
  bool unbounded;
};

WidthBand widthBandOfCategory(std::size_t cat) {
  switch (workload::widthClassOfCategory(cat)) {
    case workload::WidthClass::Sequential:
      return {1, workload::kSequentialMax, false};
    case workload::WidthClass::Narrow:
      return {workload::kSequentialMax + 1, workload::kNarrowMax, false};
    case workload::WidthClass::Wide:
      return {workload::kNarrowMax + 1, workload::kWideMax, false};
    case workload::WidthClass::VeryWide:
      break;
  }
  return {workload::kWideMax + 1, 0, true};
}

/// Last tick-skippable horizon for idle job `id` (current priority `x`,
/// rising linearly in wait) against a frozen `target` threshold: ticks
/// strictly before the returned time still satisfy !(priority >= target).
/// The crossing is estimated algebraically, then re-verified with the
/// simulator's own integer+double arithmetic at the horizon so float
/// rounding can only shrink the window, never hide a live pass.
Time crossingHorizon(const sim::Simulator& s, JobId id, double x,
                     double target) {
  const Time now = s.now();
  if (!(x < target)) return now;
  const auto est = static_cast<double>(s.job(id).estimate);
  const double tc = static_cast<double>(now) + (target - x) * est;
  Time cross = tc >= static_cast<double>(kTimeMax) ? kTimeMax
                                                   : static_cast<Time>(tc) - 1;
  if (cross > now && cross != kTimeMax) {
    const auto wait =
        static_cast<double>(s.accumulatedWait(id) + (cross - 1 - now));
    if (!((wait + est) / est < target)) cross = now;
  }
  return cross;
}
}  // namespace

SelectiveSuspension::SelectiveSuspension(SsConfig config)
    : config_(config) {
  SPS_CHECK_MSG(config_.suspensionFactor >= 1.0,
                "suspension factor must be >= 1");
  SPS_CHECK_MSG(config_.preemptionInterval > 0,
                "preemption interval must be positive");
  SPS_CHECK_MSG(!(config_.tssLimits && config_.tssOnlineMultiplier),
                "static and online TSS limits are mutually exclusive");
  if (config_.tssOnlineMultiplier)
    SPS_CHECK_MSG(*config_.tssOnlineMultiplier > 0,
                  "online TSS multiplier must be positive");
}

std::string SelectiveSuspension::name() const {
  std::ostringstream os;
  if (config_.tssOnlineMultiplier) os << "TSS-online";
  else os << (config_.tssLimits ? "TSS" : "SS");
  os << "(SF=" << config_.suspensionFactor << ")";
  return os.str();
}

void SelectiveSuspension::onSimulationStart(sim::Simulator& simulator) {
  claimsDirty_ = true;
  gateStamp_ = ~std::uint64_t{0};
  gateSkipUntil_ = kNoTime;
  tickPrefix_.clear();
  sweepHorizon_ = kNoTime;
  passHorizon_ = kNoTime;
  if (config_.kernelMode == kernel::KernelMode::Incremental)
    victimIndex_.attach(simulator);
}

void SelectiveSuspension::onJobArrival(sim::Simulator& simulator, JobId job) {
  if (config_.kernelMode == kernel::KernelMode::Incremental) {
    // At handler entry the machine sits at a dispatch fixpoint (every
    // handler ends in dispatch() or a proven no-op skip), and an arrival
    // adds no capacity and no claims: claimants and resumes still fail,
    // and every previously queued job still fails its backfill test
    // whether or not the newcomer starts (capacity only shrinks). The
    // full walk therefore reduces to the newcomer's own backfill test —
    // the exact usable/fence arithmetic of the backfill loop.
    const sim::ProcSet& fenced = claimedSet(simulator);
    sim::ProcSet unusable = fenced;
    if (config_.owedProcs == OwedProcsPolicy::Lease)
      unusable |= suspendedSets(simulator);
    const std::uint32_t usableCount =
        (simulator.freeSet() - unusable).count();
    if (usableCount >= simulator.job(job).procs + claimedCount(simulator))
      startFreshPreferring(simulator, job);
    simulator.counters().inc(obs::Counter::DispatchSkips);
  } else {
    dispatch(simulator);
  }
  armTick(simulator);
}

void SelectiveSuspension::onJobCompletion(sim::Simulator& simulator,
                                          JobId job) {
  if (config_.tssOnlineMultiplier) {
    const auto& j = simulator.job(job);
    const auto& x = simulator.exec(job);
    const auto tat = static_cast<double>(x.finish - j.submit);
    const double sd = std::max(
        1.0, tat / static_cast<double>(std::max<Time>(j.runtime, 10)));
    auto& [n, mean] = onlineSlowdowns_[estimateCategory(j)];
    ++n;
    mean += (sd - mean) / static_cast<double>(n);
  }
  dispatch(simulator);
}

void SelectiveSuspension::onSuspendDrained(sim::Simulator& simulator,
                                           JobId /*job*/) {
  dispatch(simulator);
}

void SelectiveSuspension::onJobCancelled(sim::Simulator& simulator,
                                         JobId job) {
  // Drop the cancelled job's capacity claim, if it held one; the fenced
  // processors become dispatchable again immediately.
  const auto it =
      std::find_if(claims_.begin(), claims_.end(),
                   [job](const Claim& c) { return c.job == job; });
  if (it != claims_.end()) {
    claims_.erase(it);
    claimsDirty_ = true;
  }
  dispatch(simulator);
}

void SelectiveSuspension::onTimer(sim::Simulator& simulator,
                                  std::uint64_t tag) {
  SPS_CHECK(tag == kTickTag);
  tickArmed_ = false;
  const bool incremental =
      config_.kernelMode == kernel::KernelMode::Incremental;
  // Every event handler ends in dispatch(), so at tick entry the machine is
  // already at a dispatch fixpoint: each idle job individually fails its
  // feasibility test, and those tests do not depend on the clock. If the
  // pass changes nothing, they all still fail — walk order only matters
  // once some action is taken — so dispatch() is provably a no-op too and
  // is skipped along with (or after) the pass.
  if (incremental && tickPassSkippable(simulator)) {
    simulator.counters().inc(obs::Counter::PassSkips);
    simulator.counters().inc(obs::Counter::DispatchSkips);
  } else {
    const std::uint64_t before =
        simulator.counters().value(obs::Counter::SimTransitions);
    preemptionPass(simulator);
    const bool passActed =
        simulator.counters().value(obs::Counter::SimTransitions) != before;
    if (!incremental || passActed) {
      dispatch(simulator);
    } else {
      simulator.counters().inc(obs::Counter::DispatchSkips);
      // The pass ran and proved itself a no-op. Absent transitions (which
      // invalidate gateStamp_), it can only go live once some candidate
      // crosses an SF boundary it failed this tick — the pass and the gate
      // sweep both recorded the earliest such crossing, so ticks before it
      // skip on the cache.
      gateSkipUntil_ = std::min(sweepHorizon_, passHorizon_);
    }
  }
  if (!simulator.queuedJobs().empty() || !simulator.suspendedJobs().empty())
    armTick(simulator);
}

bool SelectiveSuspension::tickPassSkippable(sim::Simulator& simulator) {
  const std::uint64_t stamp =
      simulator.counters().value(obs::Counter::SimTransitions);
  if (stamp == gateStamp_ && simulator.now() < gateSkipUntil_) return true;
  gateStamp_ = stamp;
  gateSkipUntil_ = simulator.now();
  if (victimIndex_.empty()) {
    // Nothing is running: reentry candidates find no occupants and fresh
    // candidates collect no victims, so the pass cannot act — and cannot
    // start to until some transition puts a job on the machine, which
    // invalidates the stamp.
    gateSkipUntil_ = kTimeMax;
    return true;
  }
  // The pass can only act through a successful SF test, and the easiest
  // victim is the weakest running job. If every idle candidate's priority
  // is below SF x that minimum, every victimEligible call this pass could
  // make returns false: reentry candidates block on their first occupant
  // and fresh candidates collect nothing. Candidates at or above the
  // threshold are collected for the pass — they are precisely the prefix
  // its live break can reach (the threshold never falls mid-pass: fresh
  // preemptors and reentrants enter the index at >= SF x a victim's
  // priority, and removals only raise the minimum) — so the pass runs off
  // this sweep instead of a priority-index rebuild.
  //
  // Idle priorities grow linearly in wait while running priorities (hence
  // the threshold) are frozen until the next transition, so each
  // below-threshold candidate also yields the tick horizon up to which it
  // stays below — their minimum caps how long the verdict may be cached.
  const double threshold =
      config_.suspensionFactor * victimIndex_.minPriority();
  // Below-threshold candidates only contribute the *minimum* crossing, so
  // the sweep accumulates the raw algebraic crossing (a multiply per
  // candidate) and runs the exact re-verified crossingHorizon once, on the
  // winner. The raw crossing is monotone in the verified one (floor is
  // monotone and verification can only clamp to now), so the minimum is
  // unchanged.
  const auto nowD = static_cast<double>(simulator.now());
  const double tMinus1 = threshold - 1.0;
  double minTc = std::numeric_limits<double>::infinity();
  JobId minId = kInvalidJob;
  tickPrefix_.clear();
  auto consider = [&](JobId id) {
    // x >= threshold <=> wait >= (threshold - 1) * estimate in real
    // arithmetic — a multiply instead of the xfactor division. Floats can
    // disagree only within rounding distance of the boundary, so anything
    // inside a generous relative margin falls back to the verbatim
    // division test; the slack is also exactly the algebraic crossing
    // distance (tc = now + slack), and its float noise (~1e-7 s) is
    // absorbed by crossingHorizon's floor-minus-one margin below.
    const workload::Job& j = simulator.job(id);
    const auto est = static_cast<double>(j.estimate);
    const auto wait = static_cast<double>(simulator.accumulatedWait(id));
    const double slack = tMinus1 * est - wait;
    if (slack > 1e-9 * (wait + est)) {
      const double tc = nowD + slack;
      if (tc < minTc) {
        minTc = tc;
        minId = id;
      }
      return;
    }
    const double x = (wait + est) / est;
    if (!(x < threshold)) {
      tickPrefix_.emplace_back(x, id);
      return;
    }
    const double tc = nowD + (threshold - x) * est;
    if (tc < minTc) {
      minTc = tc;
      minId = id;
    }
  };
  for (JobId id : simulator.queuedJobs()) consider(id);
  for (JobId id : simulator.suspendedJobs()) {
    if (simulator.state(id) != sim::JobState::Suspended) continue;
    consider(id);
  }
  sweepHorizon_ =
      minId == kInvalidJob
          ? kTimeMax
          : crossingHorizon(simulator, minId, simulator.xfactor(minId),
                            threshold);
  if (!tickPrefix_.empty()) return false;  // gateSkipUntil_ stays at now
  gateSkipUntil_ = sweepHorizon_;
  return true;
}

void SelectiveSuspension::armTick(sim::Simulator& simulator) {
  if (tickArmed_) return;
  tickArmed_ = true;
  simulator.scheduleTimer(simulator.now() + config_.preemptionInterval,
                          kTickTag);
}

bool SelectiveSuspension::isClaimant(JobId id) const {
  return std::any_of(claims_.begin(), claims_.end(),
                     [id](const Claim& c) { return c.job == id; });
}

void SelectiveSuspension::refreshClaims(const sim::Simulator& s) const {
  if (!claimsDirty_) return;
  claimedSetCache_.clear();
  claimedCountCache_ = 0;
  for (const Claim& c : claims_) {
    if (c.exact)
      claimedSetCache_ |= s.exec(c.job).procs;
    else
      claimedCountCache_ += s.job(c.job).procs;
  }
  claimsDirty_ = false;
}

std::uint32_t SelectiveSuspension::claimedCount(
    const sim::Simulator& s) const {
  refreshClaims(s);
  return claimedCountCache_;
}

const sim::ProcSet& SelectiveSuspension::claimedSet(
    const sim::Simulator& s) const {
  refreshClaims(s);
  return claimedSetCache_;
}

const sim::ProcSet& SelectiveSuspension::suspendedSets(
    const sim::Simulator& s) const {
  static const sim::ProcSet kNoneOwed;
  // Migration: nothing is owed. Otherwise the simulator's refcounted owed
  // aggregate is exactly the union the old per-call suspended-list scan
  // rebuilt (sps::check audits the equality on every transition sweep).
  return config_.migratableJobs ? kNoneOwed : s.suspendedOwedSet();
}

void SelectiveSuspension::startFreshPreferring(sim::Simulator& s, JobId id) {
  const sim::ProcSet& fenced = claimedSet(s);
  switch (config_.owedProcs) {
    case OwedProcsPolicy::Squat:
      s.startJobAvoiding(id, fenced);
      break;
    case OwedProcsPolicy::Prefer:
      s.startJobPreferring(id, suspendedSets(s), fenced);
      break;
    case OwedProcsPolicy::Lease:
      s.startJobAvoiding(id, fenced | suspendedSets(s));
      break;
  }
}

bool SelectiveSuspension::victimEligible(const sim::Simulator& s,
                                         JobId victim,
                                         double preemptorPriority,
                                         std::uint32_t preemptorWidth,
                                         bool reentry) const {
  s.counters().inc(obs::Counter::VictimTests);
  if (s.state(victim) != sim::JobState::Running) return false;
  const double victimPriority = s.xfactor(victim);
  if (preemptorPriority < config_.suspensionFactor * victimPriority)
    return false;
  // Half-width rule: only for fresh preemptors (Section IV-C removes it for
  // reentry, otherwise a narrow job stranded under a wide one could wait for
  // the wide job's entire remaining runtime).
  if (!reentry && config_.halfWidthRule &&
      2 * preemptorWidth < s.job(victim).procs)
    return false;
  // TSS victim protection: a job whose priority already exceeds its category
  // limit has suffered enough; preempting it would blow up the worst case.
  if (config_.tssLimits) {
    const double limit = (*config_.tssLimits)[estimateCategory(s.job(victim))];
    if (victimPriority >= limit) return false;
  }
  if (config_.tssOnlineMultiplier) {
    const auto& [n, mean] = onlineSlowdowns_[estimateCategory(s.job(victim))];
    if (n >= config_.tssOnlineMinSamples &&
        victimPriority >= *config_.tssOnlineMultiplier * mean)
      return false;
  }
  return true;
}

std::optional<double> SelectiveSuspension::victimProtectionLimit(
    const sim::Simulator& s, JobId job) const {
  const std::size_t category = estimateCategory(s.job(job));
  if (config_.tssLimits) return (*config_.tssLimits)[category];
  if (config_.tssOnlineMultiplier) {
    const auto& [n, mean] = onlineSlowdowns_[category];
    if (n >= config_.tssOnlineMinSamples)
      return *config_.tssOnlineMultiplier * mean;
  }
  return std::nullopt;
}

void SelectiveSuspension::dispatch(sim::Simulator& simulator) {
  const bool incremental =
      config_.kernelMode == kernel::KernelMode::Incremental;
  // Serve claimants first, in claim order (they were fenced in priority
  // order by the preemption pass).
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; i < claims_.size(); ++i) {
      const Claim c = claims_[i];
      if (c.exact) {
        if (simulator.exec(c.job).procs.isSubsetOf(simulator.freeSet())) {
          claims_.erase(claims_.begin() + static_cast<std::ptrdiff_t>(i));
          claimsDirty_ = true;
          simulator.resumeJob(c.job);
          progress = true;
          break;
        }
      } else {
        const sim::ProcSet fenced = claimedSet(simulator);
        const sim::ProcSet usable = simulator.freeSet() - fenced;
        if (usable.count() >= simulator.job(c.job).procs) {
          claims_.erase(claims_.begin() + static_cast<std::ptrdiff_t>(i));
          claimsDirty_ = true;
          // The claimant paid for its victims' processors; everything else
          // owed to suspended jobs is touched only for the shortfall. A
          // suspended claimant only arises in the migratable model (its
          // count-based claim could not otherwise exist).
          if (simulator.state(c.job) == sim::JobState::Suspended)
            simulator.resumeJobMigrating(c.job, fenced);
          else
            simulator.startJobPreferring(c.job, suspendedSets(simulator),
                                         fenced);
          progress = true;
          break;
        }
      }
    }
  }

  // A count-based claim still standing caps the entire dispatch: the loop
  // above exits only after a full pass in which every claim failed against
  // the *current* state, so that claim's width exceeds usable (= free minus
  // exact fences, the same set the walks below test against) — and the
  // width is itself part of countFence, so usableCount < countFence and
  // every resume and backfill test (usableCount >= procs + countFence)
  // fails unconditionally. Skip both walks; only capacity growth or claim
  // service — both of which re-enter dispatch — can change the verdict.
  // This gates the intermediate drain events of a multi-victim preemption
  // and the tick-end dispatch right after a pass fences its preemptors.
  if (incremental && std::any_of(claims_.begin(), claims_.end(),
                                 [](const Claim& c) { return !c.exact; })) {
    simulator.counters().inc(obs::Counter::DispatchSkips);
    return;
  }

  // Resume-first: a suspended job holds an implicit lease on its exact
  // processors (local preemption, no migration), so whenever they free it
  // reclaims them before any fresh job can squat. Without this, every wide
  // start entombs the suspended jobs under its footprint for its whole
  // runtime and parked capacity accumulates until utilization collapses.
  // Reentry on already-free processors needs no priority test; overlapping
  // suspended sets resolve by priority order.
  //
  // Claims are policy state and nothing in the resume/backfill walks below
  // touches them, so the claim fences are loop invariants — hoisted out of
  // the per-candidate work.
  const sim::ProcSet fenced = claimedSet(simulator);
  const std::uint32_t countFence = claimedCount(simulator);
  // usable = freeSet - fence changes only when a walk resumes or starts a
  // job; incremental mode recomputes it on those mutations only, rebuild
  // mode per candidate (the reference behaviour).
  sim::ProcSet usable;
  std::uint32_t usableCount = 0;
  bool usableDirty = true;
  auto refreshUsable = [&](const sim::ProcSet& fence) {
    if (incremental && !usableDirty) return;
    simulator.counters().inc(obs::Counter::FenceScans);
    usable = simulator.freeSet() - fence;
    usableCount = usable.count();
    usableDirty = false;
  };
  // One walk: the `state` jobs of `source`, claimants excluded, highest
  // priority first, acting on each that `fits`. The walk's own resumes and
  // starts only shrink usable, so a job that fails `fits` against the
  // walk's starting capacity fails it at every later step too: incremental
  // mode gathers only the jobs that fit at the start — a short list even
  // when thousands wait — and sorts that. Rebuild mode gathers and sorts
  // every candidate, the unfiltered reference.
  auto walk = [&](const std::vector<JobId>& source, sim::JobState state,
                  const sim::ProcSet& fence, auto fits, auto act) {
    usableDirty = true;
    if (incremental) refreshUsable(fence);
    walkScratch_.clear();
    for (const JobId id : source) {
      if (simulator.state(id) != state || isClaimant(id)) continue;
      if (incremental && !fits(id)) continue;
      walkScratch_.push_back(kernel::idleJob(simulator, id));
    }
    kernel::sortByPriority(walkScratch_);
    for (const kernel::IdleJob& candidate : walkScratch_) {
      refreshUsable(fence);
      // usable only shrinks as the walk acts, so once the fence eats all
      // of it no later candidate can fit either.
      if (incremental && usableCount <= countFence) break;
      if (fits(candidate.id)) {
        act(candidate.id);
        usableDirty = true;
      }
    }
  };
  // Incremental fast-outs: an empty candidate list or an empty free set
  // makes a walk decision-free (every resume and start needs at least one
  // usable processor), so its gather and fence scan are skipped.
  if (!incremental ||
      (!simulator.suspendedJobs().empty() && simulator.freeCount() != 0)) {
    walk(
        simulator.suspendedJobs(), sim::JobState::Suspended, fenced,
        [&](JobId id) {
          if (config_.migratableJobs)
            return usableCount >= simulator.job(id).procs + countFence;
          // x.procs subset of (freeSet - fenced) == subset of freeSet and
          // disjoint from the fence.
          const sim::ProcSet& procs = simulator.exec(id).procs;
          return procs.isSubsetOf(usable) &&
                 usableCount >= procs.count() + countFence;
        },
        [&](JobId id) {
          if (config_.migratableJobs)
            simulator.resumeJobMigrating(id, fenced);
          else
            simulator.resumeJob(id);
        });
  }

  // Backfilling without guarantees: walk queued jobs in priority order and
  // start anything that fits on unclaimed capacity; do not stop at the
  // first job that does not fit. The suspended-set lease fence is fixed for
  // the whole walk (starting a job never changes the suspended set), so it
  // is computed once, after the resume walk above settled it.
  sim::ProcSet unusable = fenced;
  if (config_.owedProcs == OwedProcsPolicy::Lease)
    unusable |= suspendedSets(simulator);
  if (!incremental ||
      (!simulator.queuedJobs().empty() && simulator.freeCount() != 0)) {
    walk(
        simulator.queuedJobs(), sim::JobState::Queued, unusable,
        [&](JobId id) {
          return usableCount >= simulator.job(id).procs + countFence;
        },
        [&](JobId id) { startFreshPreferring(simulator, id); });
  }
}

void SelectiveSuspension::preemptionPass(sim::Simulator& simulator) {
  SPS_TRACE(&simulator.recorder(),
            obs::instant("policy", "ss.preemptionPass", simulator.now()));
  if (config_.kernelMode == kernel::KernelMode::Rebuild)
    preemptionPassRebuild(simulator);
  else
    preemptionPassIncremental(simulator);
}

void SelectiveSuspension::executeFreshPreemption(
    sim::Simulator& simulator, JobId id, std::uint32_t width,
    std::uint32_t freeNow, std::vector<JobId>& victims) {
  // Suspend the widest candidates first so the fewest jobs are hit.
  std::sort(victims.begin(), victims.end(),
            [&simulator](JobId a, JobId b) {
              if (simulator.job(a).procs != simulator.job(b).procs)
                return simulator.job(a).procs > simulator.job(b).procs;
              return a < b;
            });
  std::uint32_t freed = 0;
  bool anyDraining = false;
  sim::ProcSet victimProcs;
  for (JobId r : victims) {
    if (freeNow + freed >= width) break;
    victimProcs |= simulator.exec(r).procs;
    simulator.counters().inc(obs::Counter::Preemptions);
    SPS_TRACE(&simulator.recorder(),
              obs::instant("policy", "preempt", simulator.now(), r)
                  .arg("for", id));
    simulator.suspendJob(r);
    ++preemptions_;
    freed += simulator.job(r).procs;
    if (simulator.state(r) == sim::JobState::Suspending)
      anyDraining = true;
  }
  if (anyDraining) {
    claims_.push_back({id, /*exact=*/false});
    claimsDirty_ = true;
  } else if (simulator.state(id) == sim::JobState::Suspended) {
    // Migratable model: the suspended preemptor restarts on whatever
    // freed up (a fresh-path suspended preemptor only exists when
    // migratableJobs is set).
    simulator.resumeJobMigrating(id, claimedSet(simulator));
  } else {
    // Use the victims' processors in preference to (Lease: instead of)
    // processors owed to other suspended jobs — squatting on an owed
    // set strands its owner until the squatter completes.
    const sim::ProcSet owedOthers = suspendedSets(simulator) - victimProcs;
    if (config_.owedProcs == OwedProcsPolicy::Lease)
      simulator.startJobAvoiding(id, claimedSet(simulator) | owedOthers);
    else
      simulator.startJobPreferring(id, owedOthers, claimedSet(simulator));
  }
}

void SelectiveSuspension::preemptionPassRebuild(sim::Simulator& simulator) {
  // Sort the running set once: priorities are frozen while running, so the
  // order cannot change during the pass. Jobs suspended or started during
  // the pass are filtered by state when scanned (a job started this pass is
  // simply not victimizable until the next tick).
  std::vector<JobId> runningAsc(simulator.runningJobs());
  std::sort(runningAsc.begin(), runningAsc.end(),
            [&simulator](JobId a, JobId b) {
              const double xa = simulator.xfactor(a);
              const double xb = simulator.xfactor(b);
              if (xa != xb) return xa < xb;
              return a < b;
            });

  // The fresh-preemptor fences (claims, owed sets, usable free count) are
  // recomputed per use — the reference per-candidate-reconstruction shape
  // the golden suite compares the indexed pass against.
  sim::ProcSet offLimits;
  std::uint32_t freeNow = 0;
  auto refreshFences = [&] {
    simulator.counters().inc(obs::Counter::FenceScans);
    offLimits = claimedSet(simulator);
    if (config_.owedProcs == OwedProcsPolicy::Lease)
      offLimits |= suspendedSets(simulator);
    const std::uint32_t countFence = claimedCount(simulator);
    const std::uint32_t usableFree = (simulator.freeSet() - offLimits).count();
    freeNow = usableFree >= countFence ? usableFree - countFence : 0;
  };

  // The idle jobs in priority order, as of the pass start. The snapshot goes
  // stale as this loop suspends and starts jobs; anything no longer idle is
  // skipped at use.
  std::vector<kernel::IdleJob> idle;
  for (const JobId id : simulator.queuedJobs())
    idle.push_back(kernel::idleJob(simulator, id));
  for (const JobId id : simulator.suspendedJobs())
    if (simulator.state(id) == sim::JobState::Suspended)
      idle.push_back(kernel::idleJob(simulator, id));
  kernel::sortByPriority(idle);

  for (const kernel::IdleJob& candidate : idle) {
    const JobId id = candidate.id;
    const sim::JobState st = simulator.state(id);
    if (st != sim::JobState::Queued && st != sim::JobState::Suspended)
      continue;
    if (isClaimant(id)) continue;

    const double priority = simulator.xfactor(id);
    const bool reentry =
        st == sim::JobState::Suspended && !config_.migratableJobs;
    const std::uint32_t width = simulator.job(id).procs;

    if (reentry) {
      // Must reclaim the exact saved set: every current occupant of those
      // processors has to be an eligible victim, and none may be mid-drain.
      const sim::ProcSet needed = simulator.exec(id).procs;
      if (needed.intersects(claimedSet(simulator))) continue;
      std::vector<JobId> occupants;
      bool blocked = false;
      for (JobId r : simulator.runningJobs())
        if (simulator.exec(r).procs.intersects(needed)) occupants.push_back(r);
      // Canonical suspension order: the running list is unordered (swap-
      // and-pop), and with an overhead model the occupants' drain events
      // tie-break by insertion sequence — so the schedule would otherwise
      // depend on list internals.
      std::sort(occupants.begin(), occupants.end());
      for (JobId r : simulator.suspendedJobs())
        if (simulator.state(r) == sim::JobState::Suspending &&
            simulator.exec(r).procs.intersects(needed))
          blocked = true;  // draining; try again next tick
      if (blocked) continue;
      sim::ProcSet covered = needed & simulator.freeSet();
      for (JobId r : occupants) {
        if (!victimEligible(simulator, r, priority, width,
                            /*reentry=*/true)) {
          blocked = true;
          break;
        }
        covered |= simulator.exec(r).procs & needed;
      }
      if (blocked || !(needed - covered).empty()) continue;
      if (occupants.empty()) continue;  // dispatch() handles the free case
      bool anyDraining = false;
      for (JobId r : occupants) {
        simulator.counters().inc(obs::Counter::Preemptions);
        SPS_TRACE(&simulator.recorder(),
                  obs::instant("policy", "preempt", simulator.now(), r)
                      .arg("for", id));
        simulator.suspendJob(r);
        ++preemptions_;
        if (simulator.state(r) == sim::JobState::Suspending)
          anyDraining = true;
      }
      if (anyDraining) {
        claims_.push_back({id, /*exact=*/true});
        claimsDirty_ = true;
      } else {
        simulator.resumeJob(id);
      }
    } else {
      // Fresh preemptor: collect the lowest-priority eligible victims until
      // free + gain covers the request (pseudocode label suspend_jobs_1).
      // Under the lease discipline, processors owed to OTHER suspended jobs
      // are not usable — the preemptor runs on its victims' processors plus
      // unowed free ones.
      refreshFences();
      if (freeNow >= width) continue;  // dispatch() handles the free case

      std::vector<JobId> candidates;
      std::uint32_t gain = 0;
      for (JobId r : runningAsc) {
        // runningAsc is ascending in priority and xfactor is a pure
        // function of the (fixed) clock, so once the suspension-factor test
        // fails here it fails for every later victim too — victimEligible
        // cannot pass past this point.
        if (priority < config_.suspensionFactor * simulator.xfactor(r)) break;
        if (!victimEligible(simulator, r, priority, width,
                            /*reentry=*/false))
          continue;
        candidates.push_back(r);
        gain += simulator.job(r).procs;
        if (freeNow + gain >= width) break;
      }
      if (freeNow + gain < width) continue;
      executeFreshPreemption(simulator, id, width, freeNow, candidates);
    }
  }
}

void SelectiveSuspension::preemptionPassIncremental(
    sim::Simulator& simulator) {
  // No running jobs: the candidate walk below could only hit the
  // decision-free continue arms (argued per arm), so skip it outright.
  if (victimIndex_.empty()) return;
  // Reference snapshot semantics: entries inserted at or after this stamp
  // were started mid-pass and are invisible to the fresh-victim merge (the
  // reference's pass-start sort would not contain them). The reentry
  // occupant map stays live — so does the reference's occupant scan.
  const std::uint64_t passStamp = victimIndex_.beginPass();
  seenStamp_.resize(simulator.trace().jobs.size(), 0);
  passHorizon_ = kTimeMax;
  // Failed arms fold their raw algebraic crossing (one multiply) into a
  // running minimum; the exact re-verified crossingHorizon runs once, on
  // the winner, at pass end. Sound for the non-winners too: their raw
  // crossings are at least the winner's, and the floor-minus-one margin
  // keeps every skipped tick strictly before any candidate's true crossing
  // even under the ~1e-7 s float noise of the raw form.
  const auto nowD = static_cast<double>(simulator.now());
  double passMinTc = std::numeric_limits<double>::infinity();
  JobId passMinId = kInvalidJob;
  double passMinX = 0.0;
  double passMinTarget = 0.0;
  auto noteHorizon = [&](JobId id, double x, double target) {
    const double tc =
        nowD + (target - x) * static_cast<double>(simulator.job(id).estimate);
    if (tc < passMinTc) {
      passMinTc = tc;
      passMinId = id;
      passMinX = x;
      passMinTarget = target;
    }
  };

  // The gate sweep already gathered every candidate the live break can
  // reach, with its priority evaluated at this very clock (idle priorities
  // change only on the candidate's own transitions, and those drop it from
  // the walk anyway). Ordering it under the priority-index comparator —
  // xfactor descending, ties by submit then id — reproduces the reference
  // walk exactly, without touching the full idle index.
  std::sort(tickPrefix_.begin(), tickPrefix_.end(),
            [&simulator](const std::pair<double, JobId>& a,
                         const std::pair<double, JobId>& b) {
              if (a.first != b.first) return a.first > b.first;
              const Time sa = simulator.job(a.second).submit;
              const Time sb = simulator.job(b.second).submit;
              if (sa != sb) return sa < sb;
              return a.second < b.second;
            });

  // Fresh-preemptor fences, recomputed only after this pass changes them.
  bool fencesDirty = true;
  sim::ProcSet offLimits;
  std::uint32_t freeNow = 0;
  auto refreshFences = [&] {
    if (!fencesDirty) return;
    simulator.counters().inc(obs::Counter::FenceScans);
    offLimits = claimedSet(simulator);
    if (config_.owedProcs == OwedProcsPolicy::Lease)
      offLimits |= suspendedSets(simulator);
    const std::uint32_t countFence = claimedCount(simulator);
    const std::uint32_t usableFree = (simulator.freeSet() - offLimits).count();
    freeNow = usableFree >= countFence ? usableFree - countFence : 0;
    fencesDirty = false;
  };

  // Per-category cut cursors, shared across this pass's fresh candidates.
  // Candidates walk in *descending* priority, so each category's SF cut
  // (the eligible prefix length) only shrinks from one candidate to the
  // next — instead of two binary searches per candidate per category, walk
  // the cursor down with the exact same float predicate and adjust the
  // summed gain bound by the widths that fall out. The TSS cut and the
  // frozen xfactors are pass-constant between actions, so cursors stay
  // valid until the pass suspends or starts something (which edits the
  // category vectors); any action rebuilds them at the next candidate.
  struct CatCursor {
    std::size_t sfCur;     ///< sfBoundary(cat, priority, SF), maintained
    std::size_t limitEnd;  ///< TSS protection cut (pass-constant)
    std::uint32_t gain;    ///< gainPrefix(cat, min(sfCur, limitEnd))
  };
  std::array<CatCursor, kernel::VictimIndex::kCategories> cursors;
  std::uint32_t boundTotal = 0;
  bool cursorsDirty = true;
  double minPrio = 0.0;
  bool minPrioDirty = true;
  auto categoryLimit = [&](std::size_t cat,
                           const std::vector<kernel::VictimIndex::Entry>& vec)
      -> std::size_t {
    if (config_.tssLimits)
      return victimIndex_.limitBoundary(cat, (*config_.tssLimits)[cat]);
    if (config_.tssOnlineMultiplier) {
      const auto& [n, mean] = onlineSlowdowns_[cat];
      if (n >= config_.tssOnlineMinSamples)
        return victimIndex_.limitBoundary(cat,
                                          *config_.tssOnlineMultiplier * mean);
    }
    return vec.size();
  };
  auto rebuildCursors = [&](double priority) {
    boundTotal = 0;
    for (std::size_t cat = 0; cat < kernel::VictimIndex::kCategories; ++cat) {
      const auto& vec = victimIndex_.category(cat);
      CatCursor& cc = cursors[cat];
      if (vec.empty()) {
        cc = {0, 0, 0};
        continue;
      }
      cc.sfCur = victimIndex_.sfBoundary(cat, priority,
                                         config_.suspensionFactor);
      cc.limitEnd = categoryLimit(cat, vec);
      cc.gain = victimIndex_.gainPrefix(cat, std::min(cc.sfCur, cc.limitEnd));
      boundTotal += cc.gain;
    }
    cursorsDirty = false;
  };
  auto advanceCursors = [&](double priority) {
    for (std::size_t cat = 0; cat < kernel::VictimIndex::kCategories; ++cat) {
      CatCursor& cc = cursors[cat];
      if (cc.sfCur == 0) continue;
      const auto& vec = victimIndex_.category(cat);
      // Verbatim sfBoundary predicate: entry sfCur-1 stays eligible iff
      // !(priority < SF * xfactor). Total movement per pass is bounded by
      // the running-set size, amortized O(1) per candidate.
      while (cc.sfCur > 0 &&
             priority <
                 config_.suspensionFactor * vec[cc.sfCur - 1].xfactor) {
        --cc.sfCur;
        if (cc.sfCur < cc.limitEnd) {
          cc.gain -= vec[cc.sfCur].procs;
          boundTotal -= vec[cc.sfCur].procs;
        }
      }
    }
  };
  // Steady-state O(1) per candidate: no cursor moves while the candidate's
  // priority stays at or above SF x the strongest entry still inside any SF
  // cut (the max over categories of the advance predicate's right side), so
  // a single compare proves every cursor exact. While cursors are still,
  // the gain excluded by the half-width rule and the wake-up xfactor depend
  // only on which width bands the candidate can reach — four possible
  // reach classes (band mins are the only cuts 2 x width is tested
  // against), each cached on first use and invalidated on any movement.
  double advanceTrigger = -std::numeric_limits<double>::infinity();
  std::array<double, 4> xNextByReach{};
  std::array<std::uint32_t, 4> exclByReach{};
  std::array<bool, 4> reachValid{};
  auto cursorsMoved = [&] {
    advanceTrigger = -std::numeric_limits<double>::infinity();
    for (std::size_t cat = 0; cat < kernel::VictimIndex::kCategories; ++cat) {
      const CatCursor& cc = cursors[cat];
      if (cc.sfCur == 0) continue;
      advanceTrigger = std::max(
          advanceTrigger, config_.suspensionFactor *
                              victimIndex_.category(cat)[cc.sfCur - 1].xfactor);
    }
    reachValid.fill(false);
  };
  // Reach class: highest width-band rank whose band.min the candidate's
  // doubled width covers. Identical to testing 2 x width < band.min per
  // category — a rank-q band is excluded exactly when q > reach.
  auto reachOf = [&](std::uint32_t width) -> int {
    if (!config_.halfWidthRule) return 3;
    const std::uint32_t w2 = 2 * width;
    if (w2 >= workload::kWideMax + 1) return 3;
    if (w2 >= workload::kNarrowMax + 1) return 2;
    if (w2 >= workload::kSequentialMax + 1) return 1;
    return 0;
  };
  auto computeReach = [&](int reach) {
    double xn = std::numeric_limits<double>::infinity();
    std::uint32_t excl = 0;
    for (std::size_t cat = 0; cat < kernel::VictimIndex::kCategories; ++cat) {
      const CatCursor& cc = cursors[cat];
      const auto& vec = victimIndex_.category(cat);
      if (vec.empty()) continue;
      if (static_cast<int>(workload::widthClassOfCategory(cat)) > reach) {
        excl += cc.gain;  // band too wide to reach: no gain, no wake-up
        continue;
      }
      if (cc.sfCur < cc.limitEnd && cc.sfCur < vec.size())
        xn = std::min(xn, vec[cc.sfCur].xfactor);
    }
    xNextByReach[reach] = xn;
    exclByReach[reach] = excl;
    reachValid[reach] = true;
  };

  for (const auto& [priority, id] : tickPrefix_) {
    // Same skip-on-stale semantics as the index walk: jobs this pass
    // started or resumed no longer match the idle filter.
    const sim::JobState st = simulator.state(id);
    if (st != sim::JobState::Queued && st != sim::JobState::Suspended)
      continue;
    if (isClaimant(id)) continue;
    // Candidates walk in descending priority, so once even the weakest
    // running job fails the SF test no later candidate can preempt
    // anything: reentry blocks on its first occupant, fresh collects no
    // victims — the reference merely burns failing victimTests past this
    // point. minPriority() is live but only the pass's own actions can move
    // it mid-pass, so it is cached on the same dirty signal as the cursors;
    // if the index empties mid-pass it returns +infinity and the break
    // fires, an equally decision-free tail.
    if (minPrioDirty) {
      minPrio = victimIndex_.minPriority();
      minPrioDirty = false;
    }
    if (priority < config_.suspensionFactor * minPrio) break;
    const bool reentry =
        st == sim::JobState::Suspended && !config_.migratableJobs;
    const std::uint32_t width = simulator.job(id).procs;

    if (reentry) {
      // Must reclaim the exact saved set: every current occupant of those
      // processors has to be an eligible victim, and none may be mid-drain.
      const sim::ProcSet needed = simulator.exec(id).procs;
      if (needed.intersects(claimedSet(simulator))) continue;
      // The reference's Suspending scan, as one aggregate intersection.
      if (needed.intersects(simulator.drainingSet())) continue;
      // Occupants via the owner map: O(width) instead of O(running). The
      // map tracks Running holders only, exactly the reference's scan of
      // runningJobs(); ascending sort gives the canonical suspension order.
      occupantsScratch_.clear();
      ++seenGen_;
      needed.forEach([this](std::uint32_t p) {
        const JobId r = victimIndex_.ownerOf(p);
        if (r == kInvalidJob) return;
        if (seenStamp_[r] != seenGen_) {
          seenStamp_[r] = seenGen_;
          occupantsScratch_.push_back(r);
        }
      });
      std::sort(occupantsScratch_.begin(), occupantsScratch_.end());
      sim::ProcSet covered = needed & simulator.freeSet();
      bool blocked = false;
      for (JobId r : occupantsScratch_) {
        if (!victimEligible(simulator, r, priority, width,
                            /*reentry=*/true)) {
          blocked = true;
          // If the SF ratio is what failed, this arm cannot go live before
          // the candidate's priority crosses SF x this occupant's (frozen)
          // priority — a sound wake-up bound even when later occupants
          // would fail too. A TSS-limit failure is time-independent; only
          // transitions (stamp) can change it.
          const double xr = simulator.xfactor(r);
          if (priority < config_.suspensionFactor * xr)
            noteHorizon(id, priority, config_.suspensionFactor * xr);
          break;
        }
        covered |= simulator.exec(r).procs & needed;
      }
      if (blocked || !(needed - covered).empty()) continue;
      if (occupantsScratch_.empty()) continue;  // free case: dispatch()
      bool anyDraining = false;
      for (JobId r : occupantsScratch_) {
        simulator.counters().inc(obs::Counter::Preemptions);
        SPS_TRACE(&simulator.recorder(),
                  obs::instant("policy", "preempt", simulator.now(), r)
                      .arg("for", id));
        simulator.suspendJob(r);
        ++preemptions_;
        if (simulator.state(r) == sim::JobState::Suspending)
          anyDraining = true;
      }
      fencesDirty = true;
      cursorsDirty = true;
      minPrioDirty = true;
      if (anyDraining) {
        claims_.push_back({id, /*exact=*/true});
        claimsDirty_ = true;
      } else {
        simulator.resumeJob(id);
      }
    } else {
      refreshFences();
      if (freeNow >= width) continue;  // dispatch() handles the free case

      // Per-category range cuts: within a category the eligible victims
      // form a prefix of the (frozen xfactor, id) order — the SF test and
      // any TSS limit both reject monotone suffixes, and the half-width
      // rule resolves bandwise. The cuts come from the maintained pass
      // cursors; in the steady state (no cursor crosses the advance
      // trigger) the candidate costs one compare plus a cached reach-class
      // lookup. The summed prefix widths bound the gain this candidate
      // could possibly collect, and most candidates die on that bound
      // without a single per-victim test. xNext is the weakest victim just
      // beyond a binding SF cut (and inside any TSS cut): a candidate that
      // fails for lack of gain cannot go live before its priority crosses
      // SF x that — the earliest any eligible prefix can grow without a
      // transition.
      if (cursorsDirty) {
        rebuildCursors(priority);
        cursorsMoved();
      } else if (priority < advanceTrigger) {
        advanceCursors(priority);
        cursorsMoved();
      }
      const int reach = reachOf(width);
      if (!reachValid[reach]) computeReach(reach);
      const std::uint32_t bound = boundTotal - exclByReach[reach];
      const double xNext = xNextByReach[reach];
      if (freeNow + bound < width) {
        simulator.counters().inc(obs::Counter::VictimBoundSkips);
        if (std::isfinite(xNext))
          noteHorizon(id, priority, config_.suspensionFactor * xNext);
        continue;
      }

      // The bound passed (rare at load): materialize the merge heads from
      // the cursors exactly as the search-based cuts did.
      struct Head {
        const kernel::VictimIndex::Entry* cur;
        const kernel::VictimIndex::Entry* end;
        bool widthCheck;
      };
      std::array<Head, kernel::VictimIndex::kCategories> heads;
      std::size_t nHeads = 0;
      for (std::size_t cat = 0; cat < kernel::VictimIndex::kCategories;
           ++cat) {
        const CatCursor& cc = cursors[cat];
        const auto& vec = victimIndex_.category(cat);
        if (vec.empty()) continue;
        bool widthCheck = false;
        if (config_.halfWidthRule) {
          const WidthBand band = widthBandOfCategory(cat);
          if (2 * width < band.min) continue;
          widthCheck = band.unbounded || 2 * width < band.max;
        }
        const std::size_t end = std::min(cc.sfCur, cc.limitEnd);
        if (end == 0) continue;
        heads[nHeads++] = {vec.data(), vec.data() + end, widthCheck};
      }

      // Exact collection: merge the eligible prefixes ascending by
      // (frozen xfactor, id) — the reference's runningAsc order — taking
      // the lowest-priority victims first until free + gain covers the
      // request (pseudocode label suspend_jobs_1).
      victimsScratch_.clear();
      std::uint32_t gain = 0;
      while (freeNow + gain < width) {
        std::size_t best = nHeads;
        for (std::size_t h = 0; h < nHeads; ++h) {
          if (heads[h].cur == heads[h].end) continue;
          if (best == nHeads ||
              heads[h].cur->xfactor < heads[best].cur->xfactor ||
              (heads[h].cur->xfactor == heads[best].cur->xfactor &&
               heads[h].cur->job < heads[best].cur->job))
            best = h;
        }
        if (best == nHeads) break;
        const kernel::VictimIndex::Entry& e = *heads[best].cur++;
        if (e.serial >= passStamp) continue;  // started mid-pass: invisible
        simulator.counters().inc(obs::Counter::VictimTests);
        if (heads[best].widthCheck && 2 * width < e.procs) continue;
        victimsScratch_.push_back(e.job);
        gain += e.procs;
      }
      if (freeNow + gain < width) {
        // The merge exhausted every eligible prefix (bound counts serial-
        // stamped and width-failing entries, so it can pass where the
        // exact collection falls short); more gain likewise needs an SF
        // boundary to move.
        if (std::isfinite(xNext))
          noteHorizon(id, priority, config_.suspensionFactor * xNext);
        continue;
      }
      executeFreshPreemption(simulator, id, width, freeNow, victimsScratch_);
      fencesDirty = true;
      cursorsDirty = true;
      minPrioDirty = true;
    }
  }
  if (passMinId != kInvalidJob)
    passHorizon_ = crossingHorizon(simulator, passMinId, passMinX,
                                   passMinTarget);
}

void SelectiveSuspension::onSimulationEnd(sim::Simulator& simulator) {
  SPS_CHECK_MSG(claims_.empty(), "unserved claims at end of run");
  SPS_CHECK_MSG(simulator.queuedJobs().empty(),
                "SS queue not drained at end of run");
  SPS_CHECK_MSG(simulator.suspendedJobs().empty(),
                "suspended jobs stranded at end of run");
}

}  // namespace sps::sched
