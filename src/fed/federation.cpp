#include "fed/federation.hpp"

#include <algorithm>
#include <future>
#include <optional>
#include <queue>
#include <utility>

#include "sched/overhead.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace sps::fed {

namespace {

/// A routed job waiting for its effective submission instant.
struct PendingJob {
  Time effSubmit = 0;
  JobId fleetId = 0;
  /// Min-heap order: earliest effective submit first, fleet id breaking
  /// ties — exactly the order perShardTraces assigns shard-local ids, so
  /// the streamed shard and its batch replay submit identically.
  [[nodiscard]] bool operator>(const PendingJob& o) const {
    return std::tie(effSubmit, fleetId) > std::tie(o.effSubmit, o.fleetId);
  }
};

using PendingQueue =
    std::priority_queue<PendingJob, std::vector<PendingJob>,
                        std::greater<PendingJob>>;

/// One cluster: harness + the grown-as-submitted trace copy that backs the
/// shard's id-keyed overhead model. Heap-allocated so the overhead model's
/// Trace reference stays stable while the shard vector is built.
struct Shard {
  Shard(const std::string& name, std::uint32_t machineProcs,
        const core::PolicySpec& spec, const core::SimulationOptions& options,
        bool diskSwap)
      : overheadTrace{name, machineProcs, {}} {
    core::SimulationOptions armed = options;
    if (diskSwap) {
      overhead.emplace(overheadTrace, 2.0);
      armed.sim.overhead = &*overhead;
    }
    harness.emplace(name, machineProcs, spec, armed);
  }

  workload::Trace overheadTrace;
  std::optional<sched::DiskSwapOverhead> overhead;
  std::optional<core::SimulationHarness> harness;
  PendingQueue pending;
};

}  // namespace

Federation::Federation(const workload::Trace& fleetTrace,
                       const core::PolicySpec& spec, JobRouter& router,
                       FederationConfig config)
    : trace_(fleetTrace),
      spec_(spec),
      router_(router),
      config_(std::move(config)) {
  SPS_CHECK_MSG(config_.shards >= 1, "Federation: needs at least one shard");
  SPS_CHECK_MSG(config_.routingDelay >= 0,
                "Federation: routing delay must be non-negative");
  SPS_CHECK_MSG(config_.epochLength >= 0,
                "Federation: epoch length must be non-negative");
  if (config_.jobsPerEpoch == 0) config_.jobsPerEpoch = 1;
}

FleetStats Federation::run() {
  SPS_CHECK_MSG(!ran_, "Federation::run() is single-use");
  ran_ = true;

  const std::uint32_t shardCount = config_.shards;
  const auto& jobs = trace_.jobs;
  const std::size_t n = jobs.size();

  core::SimulationOptions shardOptions;
  shardOptions.check = config_.check;
  shardOptions.timeline = config_.timeline;

  std::vector<std::unique_ptr<Shard>> shards;
  shards.reserve(shardCount);
  for (std::uint32_t s = 0; s < shardCount; ++s)
    shards.push_back(std::make_unique<Shard>(
        trace_.name + "/shard" + std::to_string(s), trace_.machineProcs,
        spec_, shardOptions, config_.diskSwapOverhead));

  FleetStats fleet;
  fleet.assignments.resize(n);
  fleet.effectiveSubmits.resize(n);

  util::ThreadPool pool(config_.threads);
  std::vector<ShardView> views(shardCount);
  std::vector<std::vector<PendingJob>> released(shardCount);

  // Earliest instant at which anything is still due: the next unrouted
  // arrival or the earliest pending effective submission. kTimeMax = done.
  const auto nextInteresting = [&](std::size_t i) {
    Time next = i < n ? jobs[i].submit : kTimeMax;
    for (const auto& shard : shards)
      if (!shard->pending.empty())
        next = std::min(next, shard->pending.top().effSubmit);
    return next;
  };

  // The epoch boundary after `lastEnd`. Fixed mode tiles sim time in
  // epochLength steps, skipping straight to the tile containing the next
  // due instant so empty stretches of a multi-year trace cost one barrier,
  // not thousands. Auto mode cuts at the submit time of the job
  // jobsPerEpoch ahead of the routing cursor, extended past same-instant
  // bursts so every epoch makes progress. Both are functions of the trace
  // alone — never of shard timing — so boundaries are deterministic.
  const auto pickEpochEnd = [&](std::size_t i, Time lastEnd) {
    const Time next = nextInteresting(i);
    if (next == kTimeMax) return kTimeMax;
    if (config_.epochLength > 0) {
      const Time steps = (next - lastEnd) / config_.epochLength + 1;
      return lastEnd + steps * config_.epochLength;
    }
    if (i >= n) return kTimeMax;  // routed everything; release the tail
    std::size_t target = i + config_.jobsPerEpoch;
    if (target >= n) return kTimeMax;
    while (target < n && jobs[target].submit <= jobs[i].submit) ++target;
    return target < n ? jobs[target].submit : kTimeMax;
  };

  std::size_t i = 0;  // routing cursor into the fleet trace
  Time lastEnd = 0;
  while (i < n || std::any_of(shards.begin(), shards.end(),
                              [](const auto& s) { return !s->pending.empty(); })) {
    const Time epochEnd = pickEpochEnd(i, lastEnd);

    // --- barrier work: route this window in global (submit, id) order ---
    for (std::uint32_t s = 0; s < shardCount; ++s) {
      views[s].machineProcs = trace_.machineProcs;
      views[s].backlogProcSeconds =
          shards[s]->harness->simulator().queuedProcEstimateSeconds();
      views[s].routedProcSeconds = 0.0;
    }
    while (i < n && (epochEnd == kTimeMax || jobs[i].submit < epochEnd)) {
      const workload::Job& job = jobs[i];
      const std::uint32_t target = router_.route(job, job.id, views);
      SPS_CHECK_MSG(target < shardCount,
                    "Federation: router named a missing shard");
      const std::uint32_t home =
          static_cast<std::uint32_t>(job.id % shardCount);
      const Time effSubmit =
          target == home ? job.submit : job.submit + config_.routingDelay;
      fleet.assignments[job.id] = target;
      fleet.effectiveSubmits[job.id] = effSubmit;
      if (target != home) ++fleet.forwarded;
      views[target].routedProcSeconds +=
          static_cast<double>(job.procs) * static_cast<double>(job.estimate);
      shards[target]->pending.push(PendingJob{effSubmit, job.id});
      ++i;
    }

    // --- release each shard's due jobs and advance to the boundary ------
    for (std::uint32_t s = 0; s < shardCount; ++s) {
      released[s].clear();
      auto& pending = shards[s]->pending;
      while (!pending.empty() &&
             (epochEnd == kTimeMax || pending.top().effSubmit < epochEnd)) {
        released[s].push_back(pending.top());
        pending.pop();
      }
    }
    std::vector<std::future<void>> barrier;
    barrier.reserve(shardCount);
    for (std::uint32_t s = 0; s < shardCount; ++s) {
      Shard& shard = *shards[s];
      const std::vector<PendingJob>& due = released[s];
      barrier.push_back(pool.submit([this, &shard, &due, epochEnd] {
        sim::Simulator& simulator = shard.harness->simulator();
        for (const PendingJob& p : due) {
          simulator.runUntil(p.effSubmit - 1);
          workload::Job job = trace_.jobs[p.fleetId];
          job.submit = p.effSubmit;
          job.id = static_cast<JobId>(shard.overheadTrace.jobs.size());
          shard.overheadTrace.jobs.push_back(job);
          (void)simulator.submit(job);
        }
        if (epochEnd != kTimeMax) simulator.runUntil(epochEnd - 1);
      }));
    }
    // Awaiting in shard order keeps failure reporting deterministic; the
    // futures also form the epoch's memory barrier.
    for (auto& f : barrier) f.get();
    ++fleet.epochs;
    lastEnd = epochEnd;
    if (epochEnd == kTimeMax) break;
  }

  fleet.shards.reserve(shardCount);
  for (auto& shard : shards)
    fleet.shards.push_back(shard->harness->finish());
  return fleet;
}

std::vector<workload::Trace> perShardTraces(
    const workload::Trace& fleetTrace,
    const std::vector<std::uint32_t>& assignments,
    const std::vector<Time>& effectiveSubmits, std::uint32_t shards) {
  SPS_CHECK_MSG(assignments.size() == fleetTrace.jobs.size() &&
                    effectiveSubmits.size() == fleetTrace.jobs.size(),
                "perShardTraces: routing record does not match the trace");
  std::vector<workload::Trace> out(shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    out[s].name = fleetTrace.name + "/shard" + std::to_string(s);
    out[s].machineProcs = fleetTrace.machineProcs;
  }
  // (effSubmit, fleet id) per shard — the release order of the federation.
  std::vector<std::vector<PendingJob>> byShard(shards);
  for (const workload::Job& job : fleetTrace.jobs) {
    SPS_CHECK_MSG(assignments[job.id] < shards,
                  "perShardTraces: assignment names a missing shard");
    byShard[assignments[job.id]].push_back(
        PendingJob{effectiveSubmits[job.id], job.id});
  }
  for (std::uint32_t s = 0; s < shards; ++s) {
    auto& list = byShard[s];
    std::sort(list.begin(), list.end(),
              [](const PendingJob& a, const PendingJob& b) { return b > a; });
    out[s].jobs.reserve(list.size());
    for (const PendingJob& p : list) {
      workload::Job job = fleetTrace.jobs[p.fleetId];
      job.submit = p.effSubmit;
      job.id = static_cast<JobId>(out[s].jobs.size());
      out[s].jobs.push_back(job);
    }
  }
  return out;
}

std::uint64_t FleetStats::jobCount() const {
  std::uint64_t total = 0;
  for (const auto& s : shards) total += s.jobs.size();
  return total;
}

std::uint64_t FleetStats::eventsProcessed() const {
  std::uint64_t total = 0;
  for (const auto& s : shards) total += s.eventsProcessed;
  return total;
}

std::uint64_t FleetStats::suspensions() const {
  std::uint64_t total = 0;
  for (const auto& s : shards) total += s.suspensions;
  return total;
}

obs::Counters FleetStats::counters() const {
  obs::Counters merged;
  for (const auto& s : shards) merged.merge(s.counters);
  return merged;
}

double FleetStats::meanBoundedSlowdown() const {
  double weighted = 0.0;
  std::uint64_t jobs = 0;
  for (const auto& s : shards) {
    weighted += s.meanBoundedSlowdown() * static_cast<double>(s.jobs.size());
    jobs += s.jobs.size();
  }
  return jobs == 0 ? 0.0 : weighted / static_cast<double>(jobs);
}

double FleetStats::utilization() const {
  double busyWeighted = 0.0;
  double procSeconds = 0.0;
  for (const auto& s : shards) {
    const double weight = static_cast<double>(s.span);
    busyWeighted += s.utilization * weight;
    procSeconds += weight;
  }
  return procSeconds == 0.0 ? 0.0 : busyWeighted / procSeconds;
}

Time FleetStats::span() const {
  Time longest = 0;
  for (const auto& s : shards) longest = std::max(longest, s.span);
  return longest;
}

}  // namespace sps::fed
