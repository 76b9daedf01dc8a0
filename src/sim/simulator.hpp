// Simulator — the discrete-event kernel for preemptive parallel job
// scheduling ("a locally developed simulator", Section III of the paper).
//
// Mechanics owned here, policy decisions delegated to SchedulingPolicy:
//   * steppable event loop over arrivals, completions, suspend-drains, and
//     timers (step / runUntil / drain; run() is the batch wrapper);
//   * streaming ingest: submit() injects jobs after construction and
//     cancelJob() withdraws pending ones, so an online driver
//     (core::SchedulerService) can feed the same core a live stream;
//   * named-processor allocation (local preemption: a suspended job resumes
//     on its exact original processors);
//   * per-job execution state: remaining work, accumulated wait (frozen
//     while running — the xfactor rule of Section IV-A), suspension counts;
//   * completion cancellation via generation counters;
//   * optional suspension/restart overhead (Section V-A): suspending holds
//     the processors for the write-out, resuming prepends the read-back.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "obs/recorder.hpp"
#include "sim/event_queue.hpp"
#include "sim/machine.hpp"
#include "sim/policy.hpp"
#include "sim/procset.hpp"
#include "util/chunk_table.hpp"
#include "workload/job.hpp"

namespace sps::sim {

enum class JobState : std::uint8_t {
  NotArrived,
  Queued,      ///< waiting, never ran or mid-preemption bookkeeping done
  Running,     ///< computing (or in its resume-overhead read-back phase)
  Suspending,  ///< preempted, processors still held for the write-out
  Suspended,   ///< preempted and drained; must resume on procSet()
  Finished,
  Cancelled,   ///< withdrawn via cancelJob before completing; terminal
};

[[nodiscard]] const char* jobStateName(JobState state);

/// JobExec::procSlot of a job with no pooled processor set.
inline constexpr std::uint32_t kNoProcSlot =
    std::numeric_limits<std::uint32_t>::max();

/// Dynamic execution state of one job. Readable by policies and by the
/// metrics layer after the run.
///
/// The job's lifecycle state itself lives in a dense side array inside the
/// Simulator (SoA layout: one byte per job, read via Simulator::state()).
/// The hot paths — index reconciliation, skip-on-stale walks, dispatch
/// scans — touch only the state byte of many jobs at once, and keeping
/// those reads out of this 80-byte record keeps them in cache. The job's
/// processor set is not here either: it lives in a simulator-owned pool
/// only while the job holds or is owed processors (Simulator::procSet).
struct JobExec {
  /// Compute seconds still required.
  Time remainingWork = 0;
  /// Start of the current running segment (kNoTime unless Running; the
  /// observers of a transition out of Running still read the ending one).
  Time segStart = kNoTime;
  /// Resume-overhead at the front of the current segment.
  Time segOverhead = 0;
  /// Wait accumulated over all completed wait periods (queued + suspended).
  Time accumWait = 0;
  /// Start of the current wait period (kNoTime while running/finished).
  Time waitSince = kNoTime;
  /// Bumped on every suspension. It doubles as the completion generation:
  /// a completion event carrying an older count is stale and ignored.
  std::uint32_t suspendCount = 0;
  /// Index of the job's set in the simulator's ProcSet pool; kNoProcSlot
  /// before the first start and once Finished or Cancelled.
  std::uint32_t procSlot = kNoProcSlot;
  Time firstStart = kNoTime;
  Time finish = kNoTime;
  /// Seconds spent writing the memory image out on suspensions (drains run
  /// to completion, so this is always fully elapsed).
  Time drainOverhead = 0;
  /// Seconds of read-back actually elapsed (a segment can be preempted
  /// before its read-back completes; only the elapsed part counts).
  Time resumeOverheadElapsed = 0;
  /// Total overhead seconds this job's processors spent not computing.
  [[nodiscard]] Time overheadTotal() const {
    return drainOverhead + resumeOverheadElapsed;
  }
};
static_assert(sizeof(JobExec) == 80, "JobExec is a per-job row; keep it small");

class Simulator;

/// The single observer surface of the simulator (Simulator::observers()).
/// Three typed subscription channels; observers fire in registration order,
/// cannot be removed, and must outlive the run. Callbacks get a const
/// Simulator and must not call any mutating Simulator API.
class ObserverRegistry {
 public:
  using StateChangeFn = std::function<void(const Simulator&, JobId,
                                           JobState /*from*/,
                                           JobState /*to*/)>;
  using EventFn = std::function<void(const Simulator&, const Event&)>;
  using ClockFn =
      std::function<void(const Simulator&, Time /*from*/, Time /*to*/)>;

  /// Fires after every job state transition (the kernel's ReservationLedger
  /// and the timeline/debug tooling subscribe here). A job leaving Running
  /// still shows its processor set and its ending segment's segStart.
  void onStateChange(StateChangeFn fn) {
    stateChange_.push_back(std::move(fn));
  }
  /// Fires for every event the run loop dispatches, after the clock has
  /// advanced to the event's time but before its handler runs.
  void onEventDispatched(EventFn fn) { event_.push_back(std::move(fn)); }
  /// Fires whenever the clock moves forward, before the triggering event's
  /// handler; `from` < `to` always.
  void onClockAdvanced(ClockFn fn) { clock_.push_back(std::move(fn)); }

  [[nodiscard]] std::size_t stateChangeCount() const {
    return stateChange_.size();
  }
  [[nodiscard]] std::size_t eventDispatchedCount() const {
    return event_.size();
  }
  [[nodiscard]] std::size_t clockAdvancedCount() const {
    return clock_.size();
  }

 private:
  friend class Simulator;

  void notifyStateChange(const Simulator& s, JobId id, JobState from,
                         JobState to) const {
    for (const StateChangeFn& fn : stateChange_) fn(s, id, from, to);
  }
  void notifyEvent(const Simulator& s, const Event& e) const {
    for (const EventFn& fn : event_) fn(s, e);
  }
  void notifyClock(const Simulator& s, Time from, Time to) const {
    for (const ClockFn& fn : clock_) fn(s, from, to);
  }

  std::vector<StateChangeFn> stateChange_;
  std::vector<EventFn> event_;
  std::vector<ClockFn> clock_;
};

/// Simulator knobs. This is the single simulator-facing options struct: the
/// CLI fills core::SimulationOptions, which embeds one of these (as `.sim`)
/// and hands it through Runner to the Simulator unchanged — no field is
/// threaded twice.
struct SimulatorConfig {
  /// nullptr = suspension and resumption are free (Sections III-IV).
  const OverheadPolicy* overhead = nullptr;
  /// Observability bundle (counters + optional trace sink). nullptr = the
  /// simulator uses an internal Recorder; supply one to keep counters and
  /// sink wiring alive after the simulator is destroyed (core::Runner
  /// harvests through metrics::collect either way).
  obs::Recorder* recorder = nullptr;
};

class Simulator {
 public:
  using Config = SimulatorConfig;

  /// Batch construction: every job of the trace is pre-submitted (the trace
  /// must satisfy validateTrace()). The simulator borrows the trace's job
  /// rows instead of copying them, so the trace, like the policy, must
  /// outlive the simulator; a batch-built simulator refuses submit().
  /// Both constructors validate their input, then bind the policy: one
  /// policy object drives one run, and a policy that already drives one
  /// throws InvariantError (an input error leaves it unbound).
  Simulator(const workload::Trace& trace, SchedulingPolicy& policy,
            Config config);
  Simulator(const workload::Trace& trace, SchedulingPolicy& policy)
      : Simulator(trace, policy, Config{}) {}
  /// A temporary trace would die before the simulator that borrows it.
  Simulator(workload::Trace&&, SchedulingPolicy&, Config) = delete;
  Simulator(workload::Trace&&, SchedulingPolicy&) = delete;

  /// Streaming construction: an empty machine-only workload. Jobs enter
  /// exclusively through submit(); run()/drain() on a simulator that never
  /// receives one is a no-op beyond the policy start/end hooks.
  Simulator(std::string traceName, std::uint32_t machineProcs,
            SchedulingPolicy& policy, Config config);

  // --- run loop ----------------------------------------------------------
  // The loop is steppable: between any two dispatched events the clock,
  // pending events, job sets, observer channels, and every accessor below are
  // all valid and mutually consistent ("paused state"). run() is literally
  // runUntil(kTimeMax); drain();.

  /// Dispatch the single earliest pending event. Returns false (and does
  /// nothing) if none is pending. The first dispatch anywhere fires
  /// SchedulingPolicy::onSimulationStart.
  bool step();

  /// Dispatch every event with time <= horizon. The clock only ever
  /// advances to times of dispatched events, so after return
  /// now() <= horizon and nextEventTime() (if any) > horizon.
  void runUntil(Time horizon);

  /// Dispatch everything left, then finalize: check no job was stranded
  /// (every submitted job Finished or Cancelled) and fire
  /// SchedulingPolicy::onSimulationEnd. Idempotent; submit() after drain()
  /// is rejected.
  void drain();

  /// Run to completion: runUntil(kTimeMax); drain();.
  void run();

  /// Earliest pending event time — the next arrival or the earliest queued
  /// event, whichever comes first — or kNoTime when neither is pending.
  [[nodiscard]] Time nextEventTime() const;
  /// True once drain() has finalized the run.
  [[nodiscard]] bool drained() const { return finalized_; }
  /// True when no job can arrive any more: every submitted job's arrival
  /// has been dispatched, and the run is batch-built or drain() has begun
  /// (a streamed run may still receive submit() until then).
  [[nodiscard]] bool arrivalsExhausted() const {
    return nextArrival_ == jobs_.size() && (jobs_.borrowed() || drainBegun_);
  }
  /// Jobs submitted but not yet Finished/Cancelled.
  [[nodiscard]] std::uint32_t unfinishedJobs() const { return unfinished_; }

  // --- streaming ingest --------------------------------------------------
  /// Inject a job after construction. `job.id` is assigned by the simulator
  /// (dense, in submission order) and returned. Requirements, checked:
  /// runtime > 0, estimate >= runtime, 1 <= procs <= machine, memory and
  /// submit non-negative, and submit >= max(now(), lastSubmit()) — the
  /// stream is monotone in submit time, like the trace files; out-of-order
  /// submissions are rejected with InputError. Feeding a trace's jobs
  /// through submit() one step() at a time replays the batch run
  /// bit-identically (the golden-equivalence discipline).
  JobId submit(workload::Job job);

  /// Withdraw a pending job. Succeeds — true, job becomes Cancelled — when
  /// the job is NotArrived (submitted, arrival not yet dispatched), or when
  /// it is Queued/Suspended *and* the policy declares supportsCancel().
  /// Running/Suspending/terminal jobs (and any pending job under a
  /// non-cancellable policy) are left untouched — returns false. Cancelled
  /// is terminal: the job's processors are never held, its metrics row is
  /// excluded from per-job aggregates.
  bool cancelJob(JobId id);

  // --- clock & workload data ---------------------------------------------
  [[nodiscard]] Time now() const { return now_; }
  /// Jobs submitted so far (batch: the whole trace); JobIds run from 0 to
  /// jobCount() - 1.
  [[nodiscard]] std::size_t jobCount() const { return jobs_.size(); }
  [[nodiscard]] const std::string& traceName() const { return traceName_; }
  /// A job's row as submitted: the caller's trace row in a batch run, the
  /// simulator's own copy in a streamed one. Rows never move, so the
  /// reference stays valid for the simulator's life (and a batch row's
  /// address is the trace's own: &job(i) == &trace.jobs[i]).
  [[nodiscard]] const workload::Job& job(JobId id) const { return jobs_[id]; }
  /// Like job(), valid for the simulator's life.
  [[nodiscard]] const JobExec& exec(JobId id) const { return exec_[id]; }
  /// The processors job `id` holds (Running, Suspending) or is owed
  /// (Suspended: local preemption resumes it on exactly this set). Empty
  /// before the first start and once the job is Finished or Cancelled: the
  /// set lives in a pool slot the job takes at its first start and gives
  /// back after the observers have seen Running -> Finished or
  /// Suspended -> Cancelled. The reference is valid until the next
  /// mutating call: a fresh start may grow the pool and a freed slot is
  /// reused, so copy the set to keep it across startJob and friends.
  [[nodiscard]] const ProcSet& procSet(JobId id) const {
    const std::uint32_t slot = exec_[id].procSlot;
    return slot == kNoProcSlot ? kNoProcs : procPool_[slot];
  }
  /// Lifecycle state, from the dense SoA side array (see JobExec).
  [[nodiscard]] JobState state(JobId id) const { return states_[id]; }
  [[nodiscard]] const Machine& machine() const { return machine_; }
  [[nodiscard]] std::uint32_t freeCount() const { return machine_.freeCount(); }
  [[nodiscard]] const ProcSet& freeSet() const { return machine_.freeSet(); }

  // --- job sets (unordered; copy before calling any mutating action) ----
  [[nodiscard]] const std::vector<JobId>& queuedJobs() const { return queued_; }
  [[nodiscard]] const std::vector<JobId>& runningJobs() const {
    return running_;
  }
  /// Suspending + Suspended jobs.
  [[nodiscard]] const std::vector<JobId>& suspendedJobs() const {
    return suspended_;
  }

  /// Sum of procs x estimate over the queued (never-started) jobs — the
  /// demand the scheduler has accepted but not yet placed. Maintained as two
  /// adds per job lifetime so samplers (obs::TimelineRecorder) read it O(1)
  /// instead of walking the queue.
  [[nodiscard]] double queuedProcEstimateSeconds() const {
    return queuedWork_;
  }

  // --- maintained processor aggregates -----------------------------------
  // O(1) reads for the fence sets every preemptive policy needs each pass.
  // Maintained at the state transitions themselves (two ProcSet updates per
  // suspension lifetime) and audited against a full recompute by
  // auditState(), so policies no longer rescan the suspended list.

  /// Union of processors owed to fully-drained Suspended jobs (their saved
  /// sets, which local preemption must eventually return to them). Owed
  /// sets can overlap — a job may start on processors another suspended job
  /// is owed and then be suspended itself — so membership is refcounted.
  [[nodiscard]] const ProcSet& suspendedOwedSet() const {
    return suspendedOwed_;
  }

  /// Union of processors still held by Suspending jobs (write-out in
  /// flight). Disjoint by construction: the machine holds them busy.
  [[nodiscard]] const ProcSet& drainingSet() const { return draining_; }

  // --- policy actions ----------------------------------------------------
  /// Start a queued job that has never been suspended, on processors
  /// Machine::allocate picks: the lowest-numbered free ones outside both
  /// sets, dipping into `softAvoid` (processors owed to suspended jobs) only
  /// for the shortfall, never touching `hardAvoid` (processors fenced for
  /// another job). Requires job.procs free processors outside `hardAvoid`.
  /// Either set may be a procSet() reference: both are read before the
  /// started job takes its pool slot.
  void startJob(JobId id, const ProcSet& hardAvoid = kNoProcs,
                const ProcSet& softAvoid = kNoProcs);

  /// Restart a Suspended job on its exact original processors. Requires all
  /// of them free.
  void resumeJob(JobId id);

  /// Restart a Suspended job on ANY free processors (drawn lowest-numbered
  /// outside `avoid`) — the *migratable* preemption model of Parsons &
  /// Sevcik discussed in the paper's related work. Only meaningful when the
  /// policy models process migration; the paper's main model (and the SS
  /// default) is local preemption via resumeJob.
  void resumeJobMigrating(JobId id, const ProcSet& avoid);

  /// Preempt a Running job. With an overhead model the processors drain
  /// until the write-out completes (state Suspending), then onSuspendDrained
  /// fires; otherwise they free immediately.
  void suspendJob(JobId id);

  /// Arm a one-shot policy timer. `when` must be >= now().
  void scheduleTimer(Time when, std::uint64_t tag);

  // --- derived per-job quantities ----------------------------------------
  /// Wait accrued so far: frozen while running (Section IV-A). Inline:
  /// priority-index rebuilds and the preemption tick gate evaluate this for
  /// every idle job at every decision point.
  [[nodiscard]] Time accumulatedWait(JobId id) const {
    const JobExec& x = exec_[id];
    Time wait = x.accumWait;
    if (x.waitSince != kNoTime) wait += now_ - x.waitSince;
    return wait;
  }
  /// Compute completed so far (excludes overhead phases).
  [[nodiscard]] Time accumulatedRun(JobId id) const;
  /// Expansion factor, Eq. 2: (wait + estimate) / estimate, on the user
  /// estimate. This is the SS suspension priority. Estimates are validated
  /// positive at construction (workload::validateTrace).
  [[nodiscard]] double xfactor(JobId id) const {
    const auto est = static_cast<double>(job(id).estimate);
    return (static_cast<double>(accumulatedWait(id)) + est) / est;
  }
  /// Chiang-Vernon instantaneous xfactor: (wait + run) / run on accumulated
  /// run time; +infinity for a job that has not computed yet.
  [[nodiscard]] double instantaneousXfactor(JobId id) const;

  // --- run statistics ------------------------------------------------------
  [[nodiscard]] double busyProcSeconds() const {
    return machine_.busyProcSeconds(now_);
  }
  /// Busy processor-seconds integrated over the arrival window only
  /// ([firstSubmit, lastSubmit]) — the steady-state utilization basis.
  /// A finite trace has a drain tail after the last arrival where no
  /// scheduler can stay fully packed; comparing schedulers over the window
  /// in which they face identical demand removes that end effect.
  [[nodiscard]] double busyProcSecondsAtLastSubmit() const {
    return busyAtLastSubmit_;
  }
  [[nodiscard]] Time lastSubmit() const { return lastSubmit_; }
  /// Latest completion time dispatched so far; final once drained().
  [[nodiscard]] Time lastFinish() const { return lastFinish_; }
  [[nodiscard]] Time firstSubmit() const { return firstSubmit_; }
  [[nodiscard]] std::uint64_t totalSuspensions() const {
    return totalSuspensions_;
  }
  [[nodiscard]] std::uint64_t eventsProcessed() const {
    return eventsProcessed_;
  }

  /// Full structural audit (free/busy partition vs job states). O(jobs).
  /// Called from tests; cheap enough to call every event in debug builds.
  void auditState() const;

  // --- observability -----------------------------------------------------
  /// The typed observer registry: state changes, dispatched events, clock
  /// advances. Subscribe before the first step()/runUntil()/run() dispatch;
  /// between steps the channels stay armed and consistent with the paused
  /// state, and submit()/cancelJob() fire them like any other transition
  /// source. See ObserverRegistry.
  [[nodiscard]] ObserverRegistry& observers() { return registry_; }
  [[nodiscard]] const ObserverRegistry& observers() const { return registry_; }

  /// The run's observability bundle (Config::recorder, or the internal
  /// default). Non-const through a const Simulator: counters and trace
  /// emission are observability, not simulation state, so read-only policy
  /// paths may record through it.
  [[nodiscard]] obs::Recorder& recorder() const { return *obs_; }
  [[nodiscard]] obs::Counters& counters() const { return obs_->counters; }

 private:
  /// Fire onSimulationStart exactly once, before the first dispatch.
  void ensureStarted();
  [[nodiscard]] bool hasPending() const {
    return nextArrival_ < jobs_.size() || !events_.empty();
  }
  /// Bind policy_ to this run; throws InvariantError when it already
  /// drives one. Runs after the constructor has validated its input.
  void bindPolicy();
  /// True when the arrival under the cursor precedes every queued event.
  [[nodiscard]] bool arrivalIsNext() const;
  /// Dispatch the earliest pending event; requires hasPending().
  void dispatchOne();
  void handleArrival(JobId id);
  void handleCompletion(JobId id, std::uint64_t generation);
  void handleSuspendDrained(JobId id);
  void beginSegment(JobId id);
  void notifyStateChange(JobId id, JobState from, JobState to);
  void addTo(std::vector<JobId>& list, JobId id);
  void removeFrom(std::vector<JobId>& list, JobId id);
  void owedAdd(const ProcSet& procs);
  void owedRemove(const ProcSet& procs);
  /// Pool slot of a job that holds one (Running, Suspending, Suspended).
  ProcSet& heldProcs(JobId id) { return procPool_[exec_[id].procSlot]; }
  /// First start: give `id` a pool slot holding `procs`. May grow the pool.
  void takeProcSlot(JobId id, ProcSet procs);
  /// Finished or Cancelled: return the job's slot to the free list.
  void releaseProcSlot(JobId id);
  [[nodiscard]] double queuedWorkOf(JobId id) const {
    const workload::Job& j = job(id);
    return static_cast<double>(j.procs) * static_cast<double>(j.estimate);
  }

  /// Job rows by JobId: borrowed from the caller's trace in a batch run,
  /// appended into owned chunks by submit() in a streamed one. Either way
  /// they describe exactly what was submitted.
  ChunkTable<const workload::Job> jobs_;
  std::string traceName_;
  SchedulingPolicy& policy_;
  Config config_;
  Machine machine_;
  /// Completions, drains and timers. Arrivals are served from
  /// jobs_[nextArrival_...] instead (see event_queue.hpp).
  EventQueue events_;
  std::size_t nextArrival_ = 0;
  /// Owned in both shapes, one row per job, appended in JobId order.
  ChunkTable<JobExec> exec_;
  /// Processor sets of the jobs that hold or are owed processors, indexed
  /// by JobExec::procSlot, so memory follows the live jobs rather than the
  /// trace. A plain vector: only a fresh start grows it.
  std::vector<ProcSet> procPool_;
  std::vector<std::uint32_t> freeProcSlots_;
  /// SoA: per-job lifecycle state, one byte per job (see JobExec).
  std::vector<JobState> states_;
  std::vector<JobId> queued_;
  double queuedWork_ = 0.0;  ///< procs x estimate summed over queued_
  std::vector<JobId> running_;
  std::vector<JobId> suspended_;
  ProcSet suspendedOwed_;   ///< refcounted union of Suspended saved sets
  ProcSet draining_;        ///< union of Suspending (write-out) holdings
  std::vector<std::uint16_t> owedRef_;  ///< per-proc owners in suspendedOwed_
  /// Position of each job in whichever of the three lists holds it (a job
  /// is in at most one at a time). Lets removeFrom swap-and-pop in O(1) —
  /// which is why the lists are documented as unordered.
  std::vector<std::uint32_t> listPos_;
  Time now_ = 0;
  Time firstSubmit_ = 0;
  Time lastSubmit_ = 0;
  Time lastFinish_ = 0;
  double busyAtLastSubmit_ = 0.0;
  bool steadySnapshotTaken_ = false;
  std::uint64_t totalSuspensions_ = 0;
  std::uint64_t eventsProcessed_ = 0;
  std::uint32_t unfinished_ = 0;
  bool started_ = false;    ///< onSimulationStart fired
  bool finalized_ = false;  ///< drain() completed
  bool drainBegun_ = false;  ///< drain() entered
  ObserverRegistry registry_;
  /// Fallback Recorder when Config::recorder is null; obs_ always points at
  /// a live Recorder so the accessors are branch-free. Mutable because
  /// recording through a const Simulator is allowed by design.
  mutable obs::Recorder ownedRecorder_;
  obs::Recorder* obs_ = &ownedRecorder_;
};

}  // namespace sps::sim
