// Shared test fixtures: trace builders, a scripted policy for driving the
// simulator deterministically from tests, a random-action chaos policy and
// a local-preemption witness.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/simulation.hpp"
#include "sim/policy.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "workload/job.hpp"
#include "workload/transforms.hpp"

namespace sps::test {

/// Compact job literal: submit, runtime, procs, optional estimate/memory.
struct J {
  Time submit;
  Time runtime;
  std::uint32_t procs;
  Time estimate = 0;  ///< 0 = accurate (estimate == runtime)
  std::uint32_t memoryMb = 0;
};

inline workload::Trace makeTrace(std::uint32_t machineProcs,
                                 std::vector<J> jobs,
                                 std::string name = "test") {
  workload::Trace trace;
  trace.name = std::move(name);
  trace.machineProcs = machineProcs;
  for (const J& spec : jobs) {
    workload::Job job;
    job.submit = spec.submit;
    job.runtime = spec.runtime;
    job.estimate = spec.estimate == 0 ? spec.runtime : spec.estimate;
    job.procs = spec.procs;
    job.memoryMb = spec.memoryMb;
    trace.jobs.push_back(job);
  }
  workload::normalizeTrace(trace);
  workload::validateTrace(trace);
  return trace;
}

/// Replay `trace` through the harness's streaming shape under minimum
/// lookahead: advance to the instant before each job's submit, then ingest
/// it. Bit-identical to core::runSimulation(trace, spec, options).
inline metrics::RunStats runStreamed(const workload::Trace& trace,
                                     const core::PolicySpec& spec,
                                     const core::SimulationOptions& options) {
  core::SimulationHarness harness(trace.name, trace.machineProcs, spec,
                                  options);
  sim::Simulator& simulator = harness.simulator();
  for (const workload::Job& job : trace.jobs) {
    simulator.runUntil(job.submit - 1);
    simulator.submit(job);
  }
  return harness.finish();
}

/// The chaos suites' workload: 80 random jobs of 1-12 processors on a
/// 12-processor machine.
inline workload::Trace chaosTrace(std::uint64_t seed) {
  Rng rng(seed * 1000003);
  std::vector<J> jobs;
  Time t = 0;
  for (int i = 0; i < 80; ++i) {
    t += rng.uniformInt(0, 200);
    jobs.push_back({t, rng.uniformInt(1, 1500),
                    static_cast<std::uint32_t>(rng.uniformInt(1, 12)), 0,
                    static_cast<std::uint32_t>(rng.uniformInt(1, 32))});
  }
  return makeTrace(12, jobs);
}

/// A policy whose behaviour is scripted through std::function hooks —
/// defaults to greedy FCFS-ish dispatch so simple tests need no hooks.
class ScriptedPolicy final : public sim::SchedulingPolicy {
 public:
  std::function<void(sim::Simulator&, JobId)> arrival;
  std::function<void(sim::Simulator&, JobId)> completion;
  std::function<void(sim::Simulator&, JobId)> drained;
  std::function<void(sim::Simulator&, std::uint64_t)> timer;

  [[nodiscard]] std::string name() const override { return "scripted"; }

  void onJobArrival(sim::Simulator& s, JobId j) override {
    if (arrival) arrival(s, j);
    else greedy(s);
  }
  void onJobCompletion(sim::Simulator& s, JobId j) override {
    if (completion) completion(s, j);
    else greedy(s);
  }
  void onSuspendDrained(sim::Simulator& s, JobId j) override {
    if (drained) drained(s, j);
    else greedy(s);
  }
  void onTimer(sim::Simulator& s, std::uint64_t tag) override {
    if (timer) timer(s, tag);
  }

  /// Start/resume everything that fits, lowest id first.
  static void greedy(sim::Simulator& s) {
    bool progress = true;
    while (progress) {
      progress = false;
      std::vector<JobId> queued(s.queuedJobs());
      std::sort(queued.begin(), queued.end());
      for (JobId id : queued) {
        if (s.job(id).procs <= s.freeCount()) {
          s.startJob(id);
          progress = true;
          break;
        }
      }
      if (progress) continue;
      std::vector<JobId> susp(s.suspendedJobs());
      std::sort(susp.begin(), susp.end());
      for (JobId id : susp) {
        if (s.state(id) == sim::JobState::Suspended &&
            s.procSet(id).isSubsetOf(s.freeSet())) {
          s.resumeJob(id);
          progress = true;
          break;
        }
      }
    }
  }
};

/// Acts randomly on every event: maybe start queued jobs, maybe suspend a
/// running job, maybe resume (locally or migrating). Guarantees progress so
/// the run terminates: with no running jobs it always starts/resumes
/// something startable.
class ChaosPolicy final : public sim::SchedulingPolicy {
 public:
  explicit ChaosPolicy(std::uint64_t seed, bool allowMigration)
      : rng_(seed), allowMigration_(allowMigration) {}

  [[nodiscard]] std::string name() const override { return "chaos"; }

  void onJobArrival(sim::Simulator& s, JobId) override { act(s); }
  void onJobCompletion(sim::Simulator& s, JobId) override { act(s); }
  void onSuspendDrained(sim::Simulator& s, JobId) override { act(s); }
  void onTimer(sim::Simulator& s, std::uint64_t) override { act(s); }

 private:
  void act(sim::Simulator& s) {
    s.auditState();
    // Random suspensions (bounded so work still progresses).
    if (!s.runningJobs().empty() && rng_.bernoulli(0.3)) {
      const auto& running = s.runningJobs();
      const JobId victim = running[static_cast<std::size_t>(
          rng_.uniformInt(0, static_cast<std::int64_t>(running.size()) - 1))];
      // Cap per-job suspensions so the chaos converges.
      if (s.exec(victim).suspendCount < 8) s.suspendJob(victim);
    }
    // Random resumes.
    std::vector<JobId> suspended(s.suspendedJobs());
    for (JobId id : suspended) {
      if (s.state(id) != sim::JobState::Suspended) continue;
      if (!rng_.bernoulli(0.5)) continue;
      if (allowMigration_ && rng_.bernoulli(0.5)) {
        if (s.freeCount() >= s.job(id).procs)
          s.resumeJobMigrating(id, sim::ProcSet{});
      } else if (s.procSet(id).isSubsetOf(s.freeSet())) {
        s.resumeJob(id);
      }
    }
    // Random starts.
    std::vector<JobId> queued(s.queuedJobs());
    for (JobId id : queued) {
      if (s.job(id).procs <= s.freeCount() && rng_.bernoulli(0.7))
        s.startJob(id);
    }
    ensureProgress(s);
    s.auditState();
  }

  /// If nothing runs and nothing drains, force something in so the event
  /// queue cannot empty with unfinished jobs.
  void ensureProgress(sim::Simulator& s) {
    if (!s.runningJobs().empty()) return;
    bool draining = false;
    for (JobId id : s.suspendedJobs())
      draining |= s.state(id) == sim::JobState::Suspending;
    if (draining) return;
    for (JobId id : std::vector<JobId>(s.suspendedJobs())) {
      if (s.state(id) == sim::JobState::Suspended &&
          s.procSet(id).isSubsetOf(s.freeSet())) {
        s.resumeJob(id);
        return;
      }
    }
    for (JobId id : std::vector<JobId>(s.queuedJobs())) {
      if (s.job(id).procs <= s.freeCount()) {
        s.startJob(id);
        return;
      }
    }
    // Everything left is suspended with occupied processors — impossible
    // here because nothing is running; free the logjam by migrating.
    for (JobId id : std::vector<JobId>(s.suspendedJobs())) {
      if (s.state(id) == sim::JobState::Suspended &&
          s.job(id).procs <= s.freeCount()) {
        s.resumeJobMigrating(id, sim::ProcSet{});
        return;
      }
    }
  }

  Rng rng_;
  bool allowMigration_;
};

/// Local-preemption witness: captures each job's processor set as it is
/// suspended and checks, at every resume, that the job came back on exactly
/// that set. Construct before the run; it must outlive it.
class ResumeWatch {
 public:
  explicit ResumeWatch(sim::Simulator& s) {
    s.observers().onStateChange([this](const sim::Simulator& sim, JobId id,
                                       sim::JobState from, sim::JobState to) {
      if (from == sim::JobState::Running &&
          (to == sim::JobState::Suspending || to == sim::JobState::Suspended)) {
        saved_[id] = sim.procSet(id);
      } else if (from == sim::JobState::Suspended &&
                 to == sim::JobState::Running) {
        ++resumes_[id];
        lastResume_[id] = sim.now();
        EXPECT_EQ(sim.procSet(id).toString(), saved_.at(id).toString())
            << "job " << id << " resumed off its suspended set at t="
            << sim.now();
      }
    });
  }
  ResumeWatch(const ResumeWatch&) = delete;
  ResumeWatch& operator=(const ResumeWatch&) = delete;

  [[nodiscard]] std::uint32_t resumes(JobId id) const {
    const auto it = resumes_.find(id);
    return it == resumes_.end() ? 0 : it->second;
  }
  /// The set the job was last suspended on (empty if never suspended).
  [[nodiscard]] sim::ProcSet suspendedOn(JobId id) const {
    const auto it = saved_.find(id);
    return it == saved_.end() ? sim::ProcSet{} : it->second;
  }
  [[nodiscard]] Time lastResume(JobId id) const {
    const auto it = lastResume_.find(id);
    return it == lastResume_.end() ? kNoTime : it->second;
  }

 private:
  std::map<JobId, sim::ProcSet> saved_;
  std::map<JobId, std::uint32_t> resumes_;
  std::map<JobId, Time> lastResume_;
};

}  // namespace sps::test
