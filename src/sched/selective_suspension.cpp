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

/// True when `needed` lies within the free set and the occupants' sets.
[[maybe_unused]] bool coveredBy(const sim::Simulator& simulator,
                                const sim::ProcSet& needed,
                                const std::vector<JobId>& occupants) {
  sim::ProcSet covered = needed & simulator.freeSet();
  for (JobId r : occupants) covered |= simulator.procSet(r) & needed;
  return (needed - covered).empty();
}
}  // namespace

SelectiveSuspension::SelectiveSuspension(SsConfig config)
    : config_(config) {
  SPS_CHECK_MSG(config_.suspensionFactor >= 1.0,
                "suspension factor must be >= 1");
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
  if (config_.kernelMode == kernel::KernelMode::Incremental) {
    victimIndex_.attach(simulator);
    idleLines_.attach(simulator);
    if (!config_.migratableJobs)
      occupancy_.attach(simulator, config_.suspensionFactor);
  }
}

void SelectiveSuspension::onJobArrival(sim::Simulator& simulator,
                                       JobId /*job*/) {
  dispatch(simulator);
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
  if (it != claims_.end()) claims_.erase(it);
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
      // query both recorded the earliest such crossing, so ticks before it
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
  // victim is the weakest running job, so no candidate below T = SF x its
  // priority can act: reentry candidates block on their first occupant and
  // fresh candidates collect nothing. A fresh candidate also needs its gain
  // bound to cover its width, and the bound is a step function of its
  // priority (VictimSteps), so each width class gets its own threshold
  // (kernel::freshThresholds) at the fences and steps built here, which
  // the pass then starts from. Reentry has no gain bound and stays at T;
  // in the migratable model a suspended job takes the fresh path. The
  // query reports each idle line against its own threshold — the pass's
  // working set when nothing has acted yet.
  //
  // Idle priorities grow linearly in wait while every threshold is frozen
  // until the next transition, so each unreported line also yields the
  // tick horizon up to which it stays below its threshold — their minimum
  // caps how long the verdict may be cached.
  refreshFreshPath(simulator);
  currentThresholds(listedAt_);
  // The exact re-verified crossingHorizon runs once, on the winning line:
  // the raw crossing is monotone in the verified one (floor is monotone and
  // verification can only clamp to now), so the minimum is unchanged.
  tickPrefix_.clear();
  const kernel::IdleLineIndex::Crossing first =
      idleLines_.query(simulator.now(), listedAt_, tickPrefix_);
  simulator.counters().add(obs::Counter::GateReports, tickPrefix_.size());
  sweepHorizon_ = first.id == kInvalidJob
                      ? kTimeMax
                      : kernel::crossingHorizon(simulator, first.id,
                                                simulator.xfactor(first.id),
                                                first.threshold);
  if (!tickPrefix_.empty()) return false;  // gateSkipUntil_ stays at now
  gateSkipUntil_ = sweepHorizon_;
  return true;
}

void SelectiveSuspension::armTick(sim::Simulator& simulator) {
  if (tickArmed_) return;
  tickArmed_ = true;
  simulator.scheduleTimer(simulator.now() + kPreemptionInterval,
                          kTickTag);
}

bool SelectiveSuspension::isClaimant(JobId id) const {
  return std::any_of(claims_.begin(), claims_.end(),
                     [id](const Claim& c) { return c.job == id; });
}

std::uint32_t SelectiveSuspension::claimedCount(
    const sim::Simulator& s) const {
  std::uint32_t count = 0;
  for (const Claim& c : claims_)
    if (!c.exact) count += s.job(c.job).procs;
  return count;
}

sim::ProcSet SelectiveSuspension::claimedSet(const sim::Simulator& s) const {
  sim::ProcSet fenced;
  for (const Claim& c : claims_)
    if (c.exact) fenced |= s.procSet(c.job);
  return fenced;
}

bool SelectiveSuspension::fencedByClaim(const sim::Simulator& s,
                                        const sim::ProcSet& procs) const {
  return std::any_of(claims_.begin(), claims_.end(), [&](const Claim& c) {
    return c.exact && s.procSet(c.job).intersects(procs);
  });
}

const sim::ProcSet& SelectiveSuspension::suspendedSets(
    const sim::Simulator& s) const {
  // Migration: nothing is owed. Otherwise the simulator's refcounted owed
  // aggregate is exactly the union the old per-call suspended-list scan
  // rebuilt (sps::check audits the equality on every transition sweep).
  return config_.migratableJobs ? sim::kNoProcs : s.suspendedOwedSet();
}

std::uint32_t SelectiveSuspension::freshFreeCount(
    const sim::Simulator& s) const {
  // A fresh start never takes its placement's hard fence: under the lease
  // discipline that includes the processors owed to suspended jobs, so a
  // fresh preemptor runs on its victims' processors plus unowed free ones.
  s.counters().inc(obs::Counter::FenceScans);
  const std::uint32_t countFence = claimedCount(s);
  const std::uint32_t usableFree = (s.freeSet() - placement(s).hard).count();
  return usableFree >= countFence ? usableFree - countFence : 0;
}

void SelectiveSuspension::refreshFreshPath(const sim::Simulator& s) {
  freeNow_ = freshFreeCount(s);
  // The TSS limits (static, or online averages that move only on
  // completions) hold between transitions.
  std::array<double, kernel::VictimIndex::kCategories> limits;
  for (std::size_t cat = 0; cat < limits.size(); ++cat) {
    const std::optional<double> limit = categoryLimit(cat);
    limits[cat] = limit ? *limit : std::numeric_limits<double>::infinity();
  }
  victimSteps_.build(victimIndex_, limits);
}

SelectiveSuspension::Placement SelectiveSuspension::placement(
    const sim::Simulator& s, bool paidClaimant) const {
  const OwedProcsPolicy owed =
      paidClaimant ? OwedProcsPolicy::Prefer : config_.owedProcs;
  if (owed == OwedProcsPolicy::Lease)
    return {claimedSet(s) | suspendedSets(s), sim::kNoProcs};
  return {claimedSet(s),
          owed == OwedProcsPolicy::Prefer ? suspendedSets(s) : sim::kNoProcs};
}

bool SelectiveSuspension::victimEligible(const sim::Simulator& s,
                                         JobId victim,
                                         double preemptorPriority,
                                         std::uint32_t preemptorWidth,
                                         bool reentry) const {
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
  const std::optional<double> limit =
      categoryLimit(estimateCategory(s.job(victim)));
  if (limit && victimPriority >= *limit) return false;
  return true;
}

std::optional<double> SelectiveSuspension::victimProtectionLimit(
    const sim::Simulator& s, JobId job) const {
  return categoryLimit(estimateCategory(s.job(job)));
}

std::optional<double> SelectiveSuspension::categoryLimit(
    std::size_t category) const {
  if (config_.tssLimits) return (*config_.tssLimits)[category];
  if (config_.tssOnlineMultiplier) {
    const auto& [n, mean] = onlineSlowdowns_[category];
    if (n >= kTssOnlineMinSamples)
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
        if (simulator.procSet(c.job).isSubsetOf(simulator.freeSet())) {
          claims_.erase(claims_.begin() + static_cast<std::ptrdiff_t>(i));
          simulator.resumeJob(c.job);
          progress = true;
          break;
        }
      } else {
        // The claimant paid for its victims' processors; everything else
        // owed to suspended jobs is touched only for the shortfall. A
        // suspended claimant only arises in the migratable model (its
        // count-based claim could not otherwise exist).
        const Placement paid = placement(simulator, /*paidClaimant=*/true);
        if ((simulator.freeSet() - paid.hard).count() >=
            simulator.job(c.job).procs) {
          claims_.erase(claims_.begin() + static_cast<std::ptrdiff_t>(i));
          if (simulator.state(c.job) == sim::JobState::Suspended)
            simulator.resumeJobMigrating(c.job, paid.hard);
          else
            simulator.startJob(c.job, paid.hard, paid.soft);
          progress = true;
          break;
        }
      }
    }
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
  // One walk: the `state` jobs, claimants excluded, highest priority
  // first, acting on each that `fits`. The walk's own resumes and starts
  // only shrink usable, so a job that fails `fits` against the walk's
  // starting capacity fails it at every later step too: incremental mode
  // gathers only the jobs no wider than usableCount − countFence that fit
  // at the start — a short list even when thousands wait — and pops them
  // off a heap only as far as the walk goes. Queued jobs come from the
  // idle-line index. Under local preemption suspended jobs come from the
  // occupancy record's unheld list: a job whose set fits has an all-free
  // set, so the others cannot be candidates. In the migratable model they
  // come from the idle-line index too. Rebuild mode gathers every
  // candidate from the simulator's lists and sorts them all, the
  // unfiltered reference.
  using IdleState = kernel::IdleLineIndex::State;
  const kernel::HitOrder walksBefore{simulator};
  const bool localResumes = !config_.migratableJobs;
  std::uint64_t resumeWalkReads = 0;
  auto walk = [&](IdleState idle, const sim::ProcSet& fence, auto fits,
                  auto act) {
    usableDirty = true;
    walkScratch_.clear();
    const bool queued = idle == IdleState::Queued;
    if (incremental) {
      refreshUsable(fence);
      // Nothing fits. Always so while a count claim stands: the claimant
      // loop left usableCount below its width, a part of countFence.
      if (usableCount <= countFence) return;
      const std::uint32_t maxWidth = usableCount - countFence;
      auto gather = [&](JobId id) {
        if (!isClaimant(id) && fits(id))
          walkScratch_.push_back(kernel::idleHit(simulator, id));
      };
      if (!queued && localResumes) {
        occupancy_.forEachUnheld([&](JobId id, std::uint32_t procs) {
          ++resumeWalkReads;
          if (procs <= maxWidth) gather(id);
        });
      } else {
        idleLines_.forEachFitting(idle, maxWidth, [&](JobId id) {
          if (!queued) ++resumeWalkReads;
          gather(id);
        });
      }
    } else {
      for (const JobId id : queued ? simulator.queuedJobs()
                                   : simulator.suspendedJobs()) {
        if (!queued) ++resumeWalkReads;
        if (simulator.state(id) == (queued ? sim::JobState::Queued
                                           : sim::JobState::Suspended) &&
            !isClaimant(id))
          walkScratch_.push_back(kernel::idleHit(simulator, id));
      }
    }
    if (incremental)
      kernel::makeWalkHeap(walkScratch_, walksBefore);
    else  // the reference order
      std::sort(walkScratch_.begin(), walkScratch_.end(), walksBefore);
    for (std::size_t next = 0; next < walkScratch_.size();) {
      const JobId id = incremental
                           ? kernel::popWalkHeap(walkScratch_, walksBefore).id
                           : walkScratch_[next++].id;
      refreshUsable(fence);
      // usable only shrinks as the walk acts, so once the fence eats all
      // of it no later candidate can fit either.
      if (incremental && usableCount <= countFence) break;
      if (fits(id)) {
        act(id);
        usableDirty = true;
      }
    }
  };
  // Incremental fast-outs: an empty candidate list or an empty free set
  // makes a walk decision-free (every resume and start needs at least one
  // usable processor), so its gather and fence scan are skipped. Under
  // local preemption the resume walk's candidates are the unheld jobs.
  const bool anyResumable = localResumes ? occupancy_.unheldCount() != 0
                                         : !simulator.suspendedJobs().empty();
  if (!incremental || (anyResumable && simulator.freeCount() != 0)) {
    walk(
        IdleState::Suspended, fenced,
        [&](JobId id) {
          if (config_.migratableJobs)
            return usableCount >= simulator.job(id).procs + countFence;
          // procSet(id) subset of (freeSet - fenced) == subset of freeSet and
          // disjoint from the fence.
          const sim::ProcSet& procs = simulator.procSet(id);
          return procs.isSubsetOf(usable) &&
                 usableCount >= procs.count() + countFence;
        },
        [&](JobId id) {
          if (config_.migratableJobs)
            simulator.resumeJobMigrating(id, fenced);
          else
            simulator.resumeJob(id);
        });
    simulator.counters().add(obs::Counter::ResumeWalkReads, resumeWalkReads);
  }

  // Backfilling without guarantees: walk queued jobs in priority order and
  // start anything that fits on unclaimed capacity; do not stop at the
  // first job that does not fit. Starting a job changes neither the claims
  // nor the owed sets, so the placement is fixed for the whole walk; it is
  // taken once, after the resume walk above settled the owed sets.
  const Placement fresh = placement(simulator);
  if (!incremental ||
      (!simulator.queuedJobs().empty() && simulator.freeCount() != 0)) {
    walk(
        IdleState::Queued, fresh.hard,
        [&](JobId id) {
          return usableCount >= simulator.job(id).procs + countFence;
        },
        [&](JobId id) { simulator.startJob(id, fresh.hard, fresh.soft); });
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

void SelectiveSuspension::executeReentryPreemption(
    sim::Simulator& simulator, JobId id, const std::vector<JobId>& occupants) {
  bool anyDraining = false;
  for (JobId r : occupants) {
    simulator.counters().inc(obs::Counter::Preemptions);
    SPS_TRACE(&simulator.recorder(),
              obs::instant("policy", "preempt", simulator.now(), r)
                  .arg("for", id));
    simulator.suspendJob(r);
    ++preemptions_;
    if (simulator.state(r) == sim::JobState::Suspending) anyDraining = true;
  }
  if (anyDraining) {
    claims_.push_back({id, /*exact=*/true});
  } else {
    simulator.resumeJob(id);
  }
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
    victimProcs |= simulator.procSet(r);
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
  } else if (simulator.state(id) == sim::JobState::Suspended) {
    // Migratable model: the suspended preemptor restarts on whatever
    // freed up (a fresh-path suspended preemptor only exists when
    // migratableJobs is set).
    simulator.resumeJobMigrating(id, claimedSet(simulator));
  } else {
    // Use the victims' processors in preference to (Lease: instead of)
    // processors owed to other suspended jobs — squatting on an owed
    // set strands its owner until the squatter completes. This is not
    // placement(): the victims' own sets, now owed to them, are left out
    // of both fences, and the other owners' sets stay soft under Squat,
    // which a fresh start ignores.
    const sim::ProcSet owedOthers = suspendedSets(simulator) - victimProcs;
    if (config_.owedProcs == OwedProcsPolicy::Lease)
      simulator.startJob(id, claimedSet(simulator) | owedOthers);
    else
      simulator.startJob(id, claimedSet(simulator), owedOthers);
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

  // The idle jobs in priority order, as of the pass start. The snapshot goes
  // stale as this loop suspends and starts jobs; anything no longer idle is
  // skipped at use.
  std::vector<kernel::IdleLineIndex::Hit> idle;
  for (const JobId id : simulator.queuedJobs())
    idle.push_back(kernel::idleHit(simulator, id));
  for (const JobId id : simulator.suspendedJobs())
    if (simulator.state(id) == sim::JobState::Suspended)
      idle.push_back(kernel::idleHit(simulator, id));
  std::sort(idle.begin(), idle.end(), kernel::HitOrder{simulator});

  for (const kernel::IdleLineIndex::Hit& candidate : idle) {
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
      const sim::ProcSet needed = simulator.procSet(id);
      if (fencedByClaim(simulator, needed)) continue;
      std::vector<JobId> occupants;
      bool blocked = false;
      for (JobId r : simulator.runningJobs())
        if (simulator.procSet(r).intersects(needed)) occupants.push_back(r);
      // Canonical suspension order: the running list is unordered (swap-
      // and-pop), and with an overhead model the occupants' drain events
      // tie-break by insertion sequence — so the schedule would otherwise
      // depend on list internals.
      std::sort(occupants.begin(), occupants.end());
      for (JobId r : simulator.suspendedJobs())
        if (simulator.state(r) == sim::JobState::Suspending &&
            simulator.procSet(r).intersects(needed))
          blocked = true;  // draining; try again next tick
      if (blocked) continue;
      sim::ProcSet covered = needed & simulator.freeSet();
      for (JobId r : occupants) {
        simulator.counters().inc(obs::Counter::VictimTests);
        if (!victimEligible(simulator, r, priority, width,
                            /*reentry=*/true)) {
          blocked = true;
          break;
        }
        covered |= simulator.procSet(r) & needed;
      }
      if (blocked || !(needed - covered).empty()) continue;
      if (occupants.empty()) continue;  // dispatch() handles the free case
      executeReentryPreemption(simulator, id, occupants);
    } else {
      // Fresh preemptor: collect the lowest-priority eligible victims until
      // free + gain covers the request (pseudocode label suspend_jobs_1).
      // The fences are recomputed per candidate — the reference
      // per-candidate-reconstruction shape.
      const std::uint32_t freeNow = freshFreeCount(simulator);
      if (freeNow >= width) continue;  // dispatch() handles the free case

      std::vector<JobId> candidates;
      std::uint32_t gain = 0;
      for (JobId r : runningAsc) {
        // runningAsc is ascending in priority and xfactor is a pure
        // function of the (fixed) clock, so once the suspension-factor test
        // fails here it fails for every later victim too — victimEligible
        // cannot pass past this point.
        if (priority < config_.suspensionFactor * simulator.xfactor(r)) break;
        simulator.counters().inc(obs::Counter::VictimTests);
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
  // The only caller runs the pass after the gate said no, and the gate says
  // yes whenever nothing is running.
  SPS_DCHECK(!victimIndex_.empty());
  // Reference snapshot semantics: entries inserted at or after this stamp
  // were started mid-pass and are invisible to the fresh-victim collection
  // (the reference's pass-start sort would not contain them). The reentry
  // occupant map stays live — so does the reference's occupant scan.
  const std::uint64_t passStamp = victimIndex_.beginPass();
  passHorizon_ = kTimeMax;
  const double sf = config_.suspensionFactor;

  // What evaluating a candidate does besides deciding: work counters and
  // the failed arms' wake-up horizon. Failed arms fold their raw algebraic
  // crossing (one multiply) into a running minimum; the exact re-verified
  // crossingHorizon runs once, on the winner, at pass end. Sound for the
  // non-winners too: their raw crossings are at least the winner's, and the
  // floor-minus-one margin keeps every skipped tick strictly before any
  // candidate's true crossing even under the ~1e-7 s float noise of the raw
  // form. Ties go to the candidate the walk reaches first: the tally is read
  // only after a pass that did not act, which merged nothing and so visited
  // its candidates in Eq. 2 order.
  struct Tally {
    std::uint64_t victimTests = 0;
    std::uint64_t boundSkips = 0;
    double minTc = std::numeric_limits<double>::infinity();
    JobId minId = kInvalidJob;
    double minX = 0.0;
    double minTarget = 0.0;
  };
  Tally tally;
  const auto nowD = static_cast<double>(simulator.now());
  auto noteHorizon = [&](JobId id, double x, double est, double target) {
    const double tc = nowD + (target - x) * est;
    if (tc >= tally.minTc) return;
    tally.minTc = tc;
    tally.minId = id;
    tally.minX = x;
    tally.minTarget = target;
  };

  // One candidate against the current state: true when it can act, with
  // its occupants (reentry) or victims (fresh) left in the scratch lists.
  // Until the pass first acts, the verdict and every tally increment depend
  // only on the pass-start state and the candidate itself. The fresh path's
  // state (freeNow_, victimSteps_) is the gate's until the first action and
  // is rebuilt after each.
  auto evaluate = [&](const kernel::IdleLineIndex::Hit& hit,
                      bool reentry) -> bool {
    const double priority = hit.x;
    const JobId id = hit.id;
    const std::uint32_t width = hit.procs;
    if (reentry) {
      // Must reclaim the exact saved set: every current occupant of those
      // processors has to be an eligible victim, and none may be mid-drain.
      const sim::ProcSet& needed = simulator.procSet(id);
      if (fencedByClaim(simulator, needed)) return false;
      // The reference's Suspending scan, as one aggregate intersection.
      if (needed.intersects(simulator.drainingSet())) return false;
      // Running priorities are frozen, so `priority < sf x xr` holds for
      // some occupant r exactly when it holds for the highest: below the
      // record's floor the scan below would fail on an SF test. The arm
      // then cannot go live before the candidate crosses the floor, or a
      // transition on its set moves the floor (and resets the gate stamp).
      // At or above it every SF test passes and the scan decides.
      const double floor = occupancy_.floor(id, victimIndex_);
      if (priority < floor) {
        if (std::isfinite(floor)) noteHorizon(id, priority, hit.est, floor);
        return false;
      }
      // Occupants via the owner map: O(width) instead of O(running). The
      // map tracks Running holders only, exactly the reference's scan of
      // runningJobs(); ascending sort gives the canonical suspension order.
      // An occupant's processors mostly run in a row, so skipping repeats
      // of the last owner leaves few duplicates for unique() to drop.
      occupantsScratch_.clear();
      needed.forEach([this](std::uint32_t p) {
        const JobId r = victimIndex_.ownerOf(p);
        if (r != kInvalidJob &&
            (occupantsScratch_.empty() || occupantsScratch_.back() != r))
          occupantsScratch_.push_back(r);
      });
      std::sort(occupantsScratch_.begin(), occupantsScratch_.end());
      occupantsScratch_.erase(
          std::unique(occupantsScratch_.begin(), occupantsScratch_.end()),
          occupantsScratch_.end());
      for (JobId r : occupantsScratch_) {
        ++tally.victimTests;
        // At or above the floor every SF test passes, so only a TSS limit
        // fails here. That is time-independent: only transitions (stamp)
        // can change it, and no horizon is due.
        if (!victimEligible(simulator, r, priority, width,
                            /*reentry=*/true))
          return false;
      }
      // Past the claim and drain checks every owed processor is free or
      // held by a Running job, and the owner map listed that job above.
      SPS_DCHECK(coveredBy(simulator, needed, occupantsScratch_));
      return !occupantsScratch_.empty();  // free case: dispatch()
    }
    if (freeNow_ >= width) return false;  // dispatch() handles the free case

    // The eligible victims are a prefix of the step function's (frozen
    // xfactor, id) order: the SF test and any TSS limit both reject
    // monotone suffixes, and the half-width rule resolves by width class.
    // The reachable widths in that prefix bound the gain this candidate
    // could possibly collect, and most candidates die on that bound
    // without a single per-victim test. xNext is the weakest reachable
    // victim just beyond the SF cut (and inside any TSS cut): a candidate
    // that fails for lack of gain cannot go live before its priority
    // crosses SF x that — the earliest any eligible prefix can grow
    // without a transition.
    const int reach =
        kernel::VictimSteps::reachOf(width, config_.halfWidthRule);
    const kernel::VictimSteps::Cut cut = victimSteps_.cut(priority, sf, reach);
    if (freeNow_ + cut.bound < width) {
      ++tally.boundSkips;
      if (std::isfinite(cut.xNext))
        noteHorizon(id, priority, hit.est, sf * cut.xNext);
      return false;
    }
    // Exact collection, ascending by (frozen xfactor, id) — the
    // reference's runningAsc order — taking the lowest-priority victims
    // first until free + gain covers the request (pseudocode label
    // suspend_jobs_1).
    victimsScratch_.clear();
    std::uint32_t gain = 0;
    const auto& steps = victimSteps_.steps();
    for (std::size_t i = 0; i < cut.end && freeNow_ + gain < width; ++i) {
      const kernel::VictimIndex::Entry& e = steps[i];
      if (e.widthClass > reach) continue;
      if (e.serial >= passStamp) continue;  // started mid-pass: invisible
      ++tally.victimTests;
      if (config_.halfWidthRule && 2 * width < e.procs) continue;
      victimsScratch_.push_back(e.job);
      gain += e.procs;
    }
    if (freeNow_ + gain < width) {
      // The collection exhausted the eligible prefix (the bound counts
      // serial-stamped and width-failing entries, so it can pass where the
      // exact collection falls short); more gain likewise needs an SF
      // boundary to move.
      if (std::isfinite(cut.xNext))
        noteHorizon(id, priority, hit.est, sf * cut.xNext);
      return false;
    }
    return true;
  };

  // One ordered walk over the gate's report. Ordering it under the Eq. 2
  // comparator reproduces the reference walk: idle priorities change only
  // on the candidate's own transitions, and those drop it from the walk
  // anyway. The report holds every idle line at or above the threshold of
  // its state and width class, and no other line can act while those
  // thresholds stand; until the first action the pass reads only
  // pass-start state, so a pass that never acts tallies exactly what any
  // other order would.
  const kernel::HitOrder walksBefore{simulator};
  std::sort(tickPrefix_.begin(), tickPrefix_.end(), walksBefore);
  passVictims_.clear();
  double minPrio = victimIndex_.minPriority();
  for (std::size_t i = 0; i < tickPrefix_.size(); ++i) {
    // A copy: an action's merge may grow the list.
    const kernel::IdleLineIndex::Hit hit = tickPrefix_[i];
    const JobId id = hit.id;
    // Same skip-on-stale semantics as the reference walk: jobs this pass
    // started or resumed are no longer idle.
    const sim::JobState st = simulator.state(id);
    if (st != sim::JobState::Queued && st != sim::JobState::Suspended)
      continue;
    if (isClaimant(id)) continue;
    // Candidates walk in descending priority, so once even the weakest
    // running job fails the SF test no later candidate can preempt
    // anything: reentry blocks on its first occupant, fresh collects no
    // victims — the reference merely burns failing victimTests past this
    // point. minPriority() is live but only the pass's own actions move it;
    // if the index empties mid-pass it returns +infinity and the break
    // fires, an equally decision-free tail.
    if (hit.x < sf * minPrio) break;
    const bool reentry =
        st == sim::JobState::Suspended && !config_.migratableJobs;
    if (!evaluate(hit, reentry)) continue;
    std::vector<JobId>& victims = reentry ? occupantsScratch_ : victimsScratch_;
    if (reentry)
      executeReentryPreemption(simulator, id, victims);
    else
      executeFreshPreemption(simulator, id, hit.procs, freeNow_, victims);
    for (const JobId r : victims)
      if (simulator.state(r) != sim::JobState::Running)
        passVictims_.push_back(r);
    refreshFreshPath(simulator);
    minPrio = victimIndex_.minPriority();
    mergeFallenThresholds(simulator, i);
  }
  obs::Counters& counters = simulator.counters();
  counters.add(obs::Counter::VictimTests, tally.victimTests);
  counters.add(obs::Counter::VictimBoundSkips, tally.boundSkips);
  if (tally.minId != kInvalidJob)
    passHorizon_ = kernel::crossingHorizon(simulator, tally.minId,
                                           tally.minX, tally.minTarget);
}

void SelectiveSuspension::currentThresholds(
    kernel::IdleLineIndex::Thresholds& out) const {
  kernel::freshThresholds(victimSteps_, idleLines_, config_.suspensionFactor,
                          freeNow_, config_.halfWidthRule, out[0]);
  out[1] = out[0];
  if (!config_.migratableJobs)
    out[1].fill(config_.suspensionFactor * victimIndex_.minPriority());
}

void SelectiveSuspension::mergeFallenThresholds(
    const sim::Simulator& simulator, std::size_t acted) {
  // The walk's list stays complete while no class threshold has dropped
  // below the one its lines were gathered at. An action can lower one: an
  // overshooting widest-first victim raises freeNow_ under Squat and
  // Prefer, the job it started joins the steps, and in the migratable model
  // suspended lines take the fresh thresholds too. Where one fell, query at
  // it and merge in the lines the list lacks: those below their old
  // threshold that sort after the candidate that just acted (the walk
  // passed the others while the old thresholds stood) and were idle at pass
  // start (not this pass's victims).
  kernel::IdleLineIndex::Thresholds fallen;
  currentThresholds(fallen);
  bool anyFell = false;
  for (std::size_t st = 0; st < fallen.size(); ++st)
    for (std::size_t c = 0; c < fallen[st].size(); ++c) {
      if (fallen[st][c] < listedAt_[st][c])
        anyFell = true;
      else
        fallen[st][c] = std::numeric_limits<double>::infinity();
    }
  if (!anyFell) return;
  const kernel::HitOrder walksBefore{simulator};
  const kernel::IdleLineIndex::Hit at = tickPrefix_[acted];
  const auto keep = static_cast<std::ptrdiff_t>(tickPrefix_.size());
  (void)idleLines_.query(simulator.now(), fallen, tickPrefix_);
  const auto drop = [&](const kernel::IdleLineIndex::Hit& hit) {
    const std::size_t st =
        simulator.state(hit.id) == sim::JobState::Queued ? 0 : 1;
    const std::size_t c = kernel::IdleLineIndex::widthClassOf(hit.procs);
    return !(hit.x < listedAt_[st][c]) || !walksBefore(at, hit) ||
           std::find(passVictims_.begin(), passVictims_.end(), hit.id) !=
               passVictims_.end();
  };
  tickPrefix_.erase(
      std::remove_if(tickPrefix_.begin() + keep, tickPrefix_.end(), drop),
      tickPrefix_.end());
  for (std::size_t st = 0; st < fallen.size(); ++st)
    for (std::size_t c = 0; c < fallen[st].size(); ++c)
      listedAt_[st][c] = std::min(listedAt_[st][c], fallen[st][c]);
  // The unwalked rest of the list and every merged line sort after `at`.
  std::sort(tickPrefix_.begin() + keep, tickPrefix_.end(), walksBefore);
  std::inplace_merge(
      tickPrefix_.begin() + static_cast<std::ptrdiff_t>(acted + 1),
      tickPrefix_.begin() + keep, tickPrefix_.end(), walksBefore);
}

void SelectiveSuspension::onSimulationEnd(sim::Simulator& simulator) {
  SPS_CHECK_MSG(claims_.empty(), "unserved claims at end of run");
  SPS_CHECK_MSG(simulator.queuedJobs().empty(),
                "SS queue not drained at end of run");
  SPS_CHECK_MSG(simulator.suspendedJobs().empty(),
                "suspended jobs stranded at end of run");
}

}  // namespace sps::sched
