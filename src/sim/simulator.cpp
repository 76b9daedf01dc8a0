#include "sim/simulator.hpp"

#include <algorithm>
#include <limits>

#include "obs/trace.hpp"
#include "util/log.hpp"
#include "workload/category.hpp"

namespace sps::sim {

namespace {

static_assert(obs::Counters::kSuspensionCategories ==
                  workload::kNumCategories16,
              "obs suspension breakdown must match the Table-I categories");

#if SPS_TRACE_ON
/// Static display name of a transition, for trace events. Covers exactly
/// the transitions the simulator can emit.
const char* transitionName(JobState from, JobState to) {
  switch (to) {
    case JobState::Queued: return "arrive";
    case JobState::Running:
      return from == JobState::Suspended ? "resume" : "start";
    case JobState::Suspending: return "suspend";
    case JobState::Suspended:
      return from == JobState::Suspending ? "drained" : "suspend";
    case JobState::Finished: return "finish";
    case JobState::Cancelled: return "cancel";
    case JobState::NotArrived: break;
  }
  return "transition";
}

const char* eventTypeName(EventType type) {
  switch (type) {
    case EventType::JobArrival: return "arrival";
    case EventType::JobCompletion: return "completion";
    case EventType::SuspendDrained: return "drained";
    case EventType::Timer: return "timer";
  }
  return "?";
}
#endif

}  // namespace

const char* jobStateName(JobState state) {
  switch (state) {
    case JobState::NotArrived: return "NotArrived";
    case JobState::Queued: return "Queued";
    case JobState::Running: return "Running";
    case JobState::Suspending: return "Suspending";
    case JobState::Suspended: return "Suspended";
    case JobState::Finished: return "Finished";
    case JobState::Cancelled: return "Cancelled";
  }
  return "?";
}

Simulator::Simulator(const workload::Trace& trace, SchedulingPolicy& policy,
                     Config config)
    : jobs_(trace.jobs),
      traceName_(trace.name),
      policy_(policy),
      config_(config),
      machine_(trace.machineProcs),
      states_(trace.jobs.size(), JobState::NotArrived),
      owedRef_(trace.machineProcs, 0),
      listPos_(trace.jobs.size(), 0) {
  if (config.recorder != nullptr) obs_ = config.recorder;
  workload::validateTrace(trace);
  for (std::size_t i = 0; i < trace.jobs.size(); ++i) exec_.emplace_back();
  unfinished_ = static_cast<std::uint32_t>(trace.jobs.size());
  firstSubmit_ = trace.jobs.empty() ? 0 : trace.jobs.front().submit;
  lastSubmit_ = trace.jobs.empty() ? 0 : trace.jobs.back().submit;
}

namespace {

/// Streaming-construction input check: there is no trace to validate, so
/// the machine size must be vetted here — before the Machine member is
/// built, whose own guard is an invariant (programmer) check, not an
/// input one.
std::uint32_t checkedMachineProcs(const std::string& name,
                                  std::uint32_t machineProcs) {
  if (machineProcs == 0)
    throw InputError("trace '" + name + "': machineProcs must be positive");
  return machineProcs;
}

}  // namespace

Simulator::Simulator(std::string traceName, std::uint32_t machineProcs,
                     SchedulingPolicy& policy, Config config)
    : traceName_(std::move(traceName)),
      policy_(policy),
      config_(config),
      machine_(checkedMachineProcs(traceName_, machineProcs)),
      owedRef_(machineProcs, 0) {
  if (config.recorder != nullptr) obs_ = config.recorder;
}

JobId Simulator::submit(workload::Job job) {
  SPS_CHECK_MSG(!finalized_, "submit() after drain()");
  SPS_CHECK_MSG(!jobs_.borrowed(),
                "submit() on a batch-built simulator, whose job rows are the "
                "caller's trace");
  job.id = static_cast<JobId>(jobs_.size());
  // The context prefix is formatted only once a check has failed.
  const auto reject = [&](const std::string& why) {
    throw InputError("submit to '" + traceName_ + "' (job " +
                     std::to_string(job.id) + "): " + why);
  };
  if (job.runtime <= 0) reject("runtime must be positive");
  if (job.estimate < job.runtime)
    reject("estimate below runtime (jobs are killed at their wall-clock "
           "limit; clamp first)");
  if (job.procs == 0) reject("procs must be >= 1");
  if (job.procs > machine_.totalProcs()) reject("procs exceed machine size");
  if (job.submit < lastSubmit_ && !jobs_.empty())
    reject("out-of-order submit time " + std::to_string(job.submit) +
           " (stream is at " + std::to_string(lastSubmit_) + ")");
  if (job.submit < now_)
    reject("submit time " + std::to_string(job.submit) +
           " in the simulated past (clock is at " + std::to_string(now_) +
           ")");
  if (jobs_.empty()) firstSubmit_ = job.submit;
  if (job.submit > lastSubmit_) {
    // The steady-state utilization window [firstSubmit, lastSubmit] just
    // grew; re-arm the snapshot so the next dispatched event at or past the
    // new boundary retakes it.
    lastSubmit_ = job.submit;
    steadySnapshotTaken_ = false;
  }
  jobs_.emplace_back(job);
  exec_.emplace_back();
  states_.push_back(JobState::NotArrived);
  listPos_.push_back(0);
  ++unfinished_;
  return job.id;
}

bool Simulator::cancelJob(JobId id) {
  SPS_CHECK_MSG(id < jobs_.size(), "cancelJob(" << id << "): no such job");
  JobExec& x = exec_[id];
  const JobState from = states_[id];
  switch (from) {
    case JobState::NotArrived:
      // Arrival not yet dispatched: mark the job Cancelled and let the
      // pending arrival event fall through handleArrival as a no-op. No
      // policy ever saw the job, so no policy hook fires.
      break;
    case JobState::Queued:
      if (!policy_.supportsCancel()) return false;
      removeFrom(queued_, id);
      queuedWork_ -= queuedWorkOf(id);
      break;
    case JobState::Suspended:
      if (!policy_.supportsCancel()) return false;
      owedRemove(heldProcs(id));
      removeFrom(suspended_, id);
      break;
    case JobState::Running:
    case JobState::Suspending:
      // Withdrawing a job that holds processors (or is draining onto disk)
      // is a kill, not a cancel; the service layer reports it as such.
      return false;
    case JobState::Finished:
    case JobState::Cancelled:
      return false;
  }
  if (x.waitSince != kNoTime) {
    x.accumWait += now_ - x.waitSince;
    x.waitSince = kNoTime;
  }
  states_[id] = JobState::Cancelled;
  SPS_CHECK(unfinished_ > 0);
  --unfinished_;
  notifyStateChange(id, from, JobState::Cancelled);
  if (from == JobState::Suspended) releaseProcSlot(id);
  if (from != JobState::NotArrived) policy_.onJobCancelled(*this, id);
  return true;
}

void Simulator::ensureStarted() {
  if (started_) return;
  started_ = true;
  policy_.onSimulationStart(*this);
}

bool Simulator::arrivalIsNext() const {
  return nextArrival_ < jobs_.size() &&
         (events_.empty() || jobs_[nextArrival_].submit <= events_.nextTime());
}

void Simulator::dispatchOne() {
  Event e;
  if (arrivalIsNext()) {
    // Arrivals win same-instant ties and fire in id order (the band-0
    // rule of the (time, band, seq) order); they never enter events_.
    const workload::Job& j = jobs_[nextArrival_++];
    e.time = j.submit;
    e.type = EventType::JobArrival;
    e.payload = j.id;
  } else {
    e = events_.pop();
  }
  SPS_CHECK_MSG(e.time >= now_, "event time " << e.time << " before now "
                                              << now_);
  if (!steadySnapshotTaken_ && e.time >= lastSubmit_) {
    // Integral through the last arrival instant, taken before any state
    // change at or after it. A later submit() raising lastSubmit_ re-arms
    // the snapshot; state changes at exactly lastSubmit_ have zero measure
    // in the integral, so the retaken value matches the batch one.
    busyAtLastSubmit_ = machine_.busyProcSeconds(lastSubmit_);
    steadySnapshotTaken_ = true;
  }
  if (e.time != now_) {
    obs_->counters.inc(obs::Counter::SimClockAdvances);
    const Time prev = now_;
    now_ = e.time;
    registry_.notifyClock(*this, prev, now_);
  }
  ++eventsProcessed_;
  obs_->counters.inc(obs::Counter::SimEvents);
  registry_.notifyEvent(*this, e);
  SPS_TRACE(obs_, obs::instant("sim", eventTypeName(e.type), now_)
                      .arg("payload",
                           static_cast<std::int64_t>(e.payload)));
  switch (e.type) {
    case EventType::JobArrival:
      handleArrival(static_cast<JobId>(e.payload));
      break;
    case EventType::JobCompletion:
      handleCompletion(static_cast<JobId>(e.payload), e.generation);
      break;
    case EventType::SuspendDrained:
      handleSuspendDrained(static_cast<JobId>(e.payload));
      break;
    case EventType::Timer:
      policy_.onTimer(*this, e.payload);
      break;
  }
}

bool Simulator::step() {
  ensureStarted();
  if (!hasPending()) return false;
  dispatchOne();
  return true;
}

void Simulator::runUntil(Time horizon) {
  ensureStarted();
  for (Time t = nextEventTime(); t != kNoTime && t <= horizon;
       t = nextEventTime())
    dispatchOne();
}

void Simulator::drain() {
  if (finalized_) return;
  ensureStarted();
  while (hasPending()) dispatchOne();
  SPS_CHECK_MSG(unfinished_ == 0,
                unfinished_ << " jobs never finished — policy starved them");
  finalized_ = true;
  policy_.onSimulationEnd(*this);
}

void Simulator::run() {
  runUntil(kTimeMax);
  drain();
}

Time Simulator::nextEventTime() const {
  if (nextArrival_ == jobs_.size())
    return events_.empty() ? kNoTime : events_.nextTime();
  const Time arrival = jobs_[nextArrival_].submit;
  return events_.empty() ? arrival : std::min(arrival, events_.nextTime());
}

void Simulator::handleArrival(JobId id) {
  JobExec& x = exec_[id];
  if (states_[id] == JobState::Cancelled) return;  // cancelled before arrival
  SPS_CHECK(states_[id] == JobState::NotArrived);
  states_[id] = JobState::Queued;
  x.remainingWork = job(id).runtime;
  x.waitSince = now_;
  addTo(queued_, id);
  queuedWork_ += queuedWorkOf(id);
  notifyStateChange(id, JobState::NotArrived, JobState::Queued);
  policy_.onJobArrival(*this, id);
}

void Simulator::handleCompletion(JobId id, std::uint64_t generation) {
  JobExec& x = exec_[id];
  if (generation != x.suspendCount) return;  // cancelled by a suspension
  SPS_CHECK_MSG(states_[id] == JobState::Running,
                "completion of job " << id << " in state "
                                     << jobStateName(states_[id]));
  machine_.release(heldProcs(id), now_);
  states_[id] = JobState::Finished;
  x.remainingWork = 0;
  x.finish = now_;
  x.resumeOverheadElapsed += x.segOverhead;
  removeFrom(running_, id);
  // Observers (victim index, capacity audit, ledger) read the finished
  // job's set and segment at this transition; only then do they go.
  notifyStateChange(id, JobState::Running, JobState::Finished);
  x.segStart = kNoTime;
  releaseProcSlot(id);
  lastFinish_ = std::max(lastFinish_, now_);
  SPS_CHECK(unfinished_ > 0);
  --unfinished_;
  policy_.onJobCompletion(*this, id);
}

void Simulator::handleSuspendDrained(JobId id) {
  SPS_CHECK(states_[id] == JobState::Suspending);
  const ProcSet& procs = heldProcs(id);
  machine_.release(procs, now_);
  states_[id] = JobState::Suspended;
  draining_ -= procs;
  owedAdd(procs);
  notifyStateChange(id, JobState::Suspending, JobState::Suspended);
  policy_.onSuspendDrained(*this, id);
}

void Simulator::beginSegment(JobId id) {
  JobExec& x = exec_[id];
  const JobState from = states_[id];
  // Close the wait period.
  SPS_CHECK(x.waitSince != kNoTime);
  x.accumWait += now_ - x.waitSince;
  x.waitSince = kNoTime;
  states_[id] = JobState::Running;
  x.segStart = now_;
  x.segOverhead = 0;
  if (x.suspendCount > 0 && config_.overhead != nullptr) {
    x.segOverhead = config_.overhead->resumeOverhead(id);
    SPS_CHECK(x.segOverhead >= 0);
  }
  if (x.firstStart == kNoTime) x.firstStart = now_;
  addTo(running_, id);
  events_.push(now_ + x.segOverhead + x.remainingWork,
               EventType::JobCompletion, id, x.suspendCount);
  notifyStateChange(id, from, JobState::Running);
}

void Simulator::startJob(JobId id, const ProcSet& hardAvoid,
                         const ProcSet& softAvoid) {
  SPS_CHECK_MSG(states_[id] == JobState::Queued,
                "startJob(" << id << ") in state "
                            << jobStateName(states_[id]));
  SPS_CHECK_MSG(exec_[id].suspendCount == 0,
                "startJob(" << id << ") on a previously-suspended job; use "
                               "resumeJob");
  takeProcSlot(id,
               machine_.allocate(job(id).procs, now_, hardAvoid, softAvoid));
  removeFrom(queued_, id);
  queuedWork_ -= queuedWorkOf(id);
  beginSegment(id);
}

void Simulator::resumeJob(JobId id) {
  SPS_CHECK_MSG(states_[id] == JobState::Suspended,
                "resumeJob(" << id << ") in state "
                             << jobStateName(states_[id]));
  const ProcSet& procs = heldProcs(id);
  machine_.allocateExact(procs, now_);
  owedRemove(procs);
  removeFrom(suspended_, id);
  beginSegment(id);
}

void Simulator::resumeJobMigrating(JobId id, const ProcSet& avoid) {
  SPS_CHECK_MSG(states_[id] == JobState::Suspended,
                "resumeJobMigrating(" << id << ") in state "
                                      << jobStateName(states_[id]));
  owedRemove(heldProcs(id));  // before the saved set is replaced below
  heldProcs(id) = machine_.allocate(job(id).procs, now_, avoid);
  removeFrom(suspended_, id);
  beginSegment(id);
}

void Simulator::suspendJob(JobId id) {
  JobExec& x = exec_[id];
  SPS_CHECK_MSG(states_[id] == JobState::Running,
                "suspendJob(" << id << ") in state "
                              << jobStateName(states_[id]));
  // Work completed in the current segment (the read-back overhead at the
  // front of the segment does no useful work).
  const Time elapsed = now_ - x.segStart;
  const Time done = std::clamp<Time>(elapsed - x.segOverhead, 0,
                                     x.remainingWork);
  x.remainingWork -= done;
  x.resumeOverheadElapsed += std::min(elapsed, x.segOverhead);
  ++x.suspendCount;  // also invalidates the scheduled completion
  ++totalSuspensions_;
  x.waitSince = now_;  // wait (and thus xfactor) accrues while suspended
  removeFrom(running_, id);
  addTo(suspended_, id);
  Time drain = 0;
  if (config_.overhead != nullptr) {
    drain = config_.overhead->suspendOverhead(id);
    SPS_CHECK(drain >= 0);
    x.drainOverhead += drain;
  }
  const ProcSet& procs = heldProcs(id);
  if (drain > 0) {
    states_[id] = JobState::Suspending;
    draining_ |= procs;
    events_.push(now_ + drain, EventType::SuspendDrained, id);
    notifyStateChange(id, JobState::Running, JobState::Suspending);
  } else {
    states_[id] = JobState::Suspended;
    machine_.release(procs, now_);
    owedAdd(procs);
    notifyStateChange(id, JobState::Running, JobState::Suspended);
  }
  // Cleared after the observers, who read the ending segment.
  x.segStart = kNoTime;
}

void Simulator::notifyStateChange(JobId id, JobState from, JobState to) {
  obs::Counters& c = obs_->counters;
  c.inc(obs::Counter::SimTransitions);
  if (to == JobState::Running) {
    c.inc(from == JobState::Suspended ? obs::Counter::SimResumes
                                      : obs::Counter::SimStarts);
    SPS_TRACE(obs_, obs::begin("job", "run", now_, id)
                        .arg("procs", job(id).procs));
  } else if (from == JobState::Running) {
    // Finished, or preempted (Suspending with drain overhead, Suspended
    // without). Either way the running span closes here.
    if (to != JobState::Finished) {
      c.inc(obs::Counter::SimSuspensions);
      // Per-category breakdown uses the paper's Table-I categorization by
      // *actual* runtime, matching metrics::CategoryStats.
      c.incSuspensionCategory(
          workload::category16(job(id).runtime, job(id).procs));
    }
    SPS_TRACE(obs_, obs::end("job", "run", now_, id)
                        .arg("suspended",
                             static_cast<std::int64_t>(
                                 to != JobState::Finished)));
  } else {
    SPS_TRACE(obs_,
              obs::instant("job", transitionName(from, to), now_, id));
  }
  registry_.notifyStateChange(*this, id, from, to);
}

void Simulator::scheduleTimer(Time when, std::uint64_t tag) {
  SPS_CHECK_MSG(when >= now_, "timer in the past: " << when << " < " << now_);
  events_.push(when, EventType::Timer, tag);
}

Time Simulator::accumulatedRun(JobId id) const {
  const JobExec& x = exec_[id];
  Time done = job(id).runtime - x.remainingWork;
  if (states_[id] == JobState::Running) {
    // remainingWork is only decremented at suspension; subtract the current
    // segment's progress explicitly.
    const Time elapsed = now_ - x.segStart;
    const Time segDone =
        std::clamp<Time>(elapsed - x.segOverhead, 0, x.remainingWork);
    done = job(id).runtime - x.remainingWork + segDone;
  }
  return done;
}

double Simulator::instantaneousXfactor(JobId id) const {
  const auto run = static_cast<double>(accumulatedRun(id));
  if (run <= 0.0) return std::numeric_limits<double>::infinity();
  return (static_cast<double>(accumulatedWait(id)) + run) / run;
}

void Simulator::addTo(std::vector<JobId>& list, JobId id) {
  listPos_[id] = static_cast<std::uint32_t>(list.size());
  list.push_back(id);
}

void Simulator::takeProcSlot(JobId id, ProcSet procs) {
  std::uint32_t& slot = exec_[id].procSlot;
  SPS_DCHECK(slot == kNoProcSlot);
  if (freeProcSlots_.empty()) {
    slot = static_cast<std::uint32_t>(procPool_.size());
    procPool_.push_back(std::move(procs));
  } else {
    slot = freeProcSlots_.back();
    freeProcSlots_.pop_back();
    procPool_[slot] = std::move(procs);
  }
}

void Simulator::releaseProcSlot(JobId id) {
  std::uint32_t& slot = exec_[id].procSlot;
  SPS_DCHECK(slot != kNoProcSlot);
  freeProcSlots_.push_back(slot);
  slot = kNoProcSlot;
}

void Simulator::owedAdd(const ProcSet& procs) {
  procs.forEach([this](std::uint32_t p) {
    if (owedRef_[p]++ == 0) suspendedOwed_.insert(p);
  });
}

void Simulator::owedRemove(const ProcSet& procs) {
  procs.forEach([this](std::uint32_t p) {
    SPS_DCHECK(owedRef_[p] > 0);
    if (--owedRef_[p] == 0) suspendedOwed_.erase(p);
  });
}

void Simulator::removeFrom(std::vector<JobId>& list, JobId id) {
  const std::uint32_t pos = listPos_[id];
  SPS_CHECK_MSG(pos < list.size() && list[pos] == id,
                "job " << id << " missing from state list");
  // Swap-and-pop: O(1), at the cost of list order — which the accessors
  // already declare meaningless (policies must impose their own order).
  list[pos] = list.back();
  listPos_[list[pos]] = pos;
  list.pop_back();
}

void Simulator::auditState() const {
  ProcSet busy;
  ProcSet owed;
  ProcSet draining;
  std::uint32_t busyCount = 0;
  std::size_t nQueued = 0, nRunning = 0, nSusp = 0;
  for (JobId id = 0; id < exec_.size(); ++id) {
    const ProcSet& procs = procSet(id);
    switch (states_[id]) {
      case JobState::Running:
      case JobState::Suspending: {
        SPS_CHECK_MSG(!busy.intersects(procs),
                      "processor double-booked by job " << id);
        SPS_CHECK_MSG(procs.count() == job(id).procs,
                      "job " << id << " holds wrong processor count");
        busy |= procs;
        busyCount += procs.count();
        if (states_[id] == JobState::Running) {
          ++nRunning;
        } else {
          draining |= procs;
          ++nSusp;
        }
        break;
      }
      case JobState::Suspended:
        SPS_CHECK_MSG(procs.count() == job(id).procs,
                      "suspended job " << id << " lost its processor set");
        owed |= procs;
        ++nSusp;
        break;
      case JobState::Queued:
        ++nQueued;
        [[fallthrough]];
      case JobState::NotArrived:
      case JobState::Finished:
      case JobState::Cancelled:
        SPS_CHECK_MSG(exec_[id].procSlot == kNoProcSlot,
                      "job " << id << " keeps a processor slot in state "
                             << jobStateName(states_[id]));
        break;
    }
  }
  SPS_CHECK_MSG(nRunning + nSusp + freeProcSlots_.size() == procPool_.size(),
                "processor-set pool leaked: " << procPool_.size()
                    << " slots, " << freeProcSlots_.size() << " free, "
                    << nRunning + nSusp << " jobs holding one");
  SPS_CHECK_MSG(owed == suspendedOwed_,
                "suspended-owed aggregate drifted: recomputed "
                    << owed.toString() << " vs maintained "
                    << suspendedOwed_.toString());
  SPS_CHECK_MSG(draining == draining_,
                "draining aggregate drifted: recomputed "
                    << draining.toString() << " vs maintained "
                    << draining_.toString());
  SPS_CHECK_MSG(!busy.intersects(machine_.freeSet()),
                "free set overlaps busy processors");
  SPS_CHECK_MSG(busyCount + machine_.freeCount() == machine_.totalProcs(),
                "processor conservation violated: busy=" << busyCount
                    << " free=" << machine_.freeCount() << " total="
                    << machine_.totalProcs());
  SPS_CHECK(nQueued == queued_.size());
  SPS_CHECK(nRunning == running_.size());
  SPS_CHECK(nSusp == suspended_.size());
  double queuedWork = 0.0;
  for (JobId id : queued_) queuedWork += queuedWorkOf(id);
  SPS_CHECK_MSG(queuedWork == queuedWork_,
                "queued-work aggregate drifted: recomputed "
                    << queuedWork << " vs maintained " << queuedWork_);
}

}  // namespace sps::sim
