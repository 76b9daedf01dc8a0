// Federation — conservative multi-cluster simulation (sps::fed).
//
// Runs N Simulator shards — each a full cluster with its own Machine,
// policy instance, and invariant oracle — on one util::ThreadPool, advanced
// in conservative epochs over the PR-8 steppable contract:
//
//   route the epoch's arrivals (single-threaded, global submit order)
//   release each shard's due jobs; per shard, on the pool:
//       runUntil(submit - 1); submit(job); ... runUntil(epochEnd - 1)
//   barrier on the futures; repeat; drain every shard.
//
// The epoch boundary is exclusive: an epoch [a, b) dispatches exactly the
// events with time < b, so no shard ever advances past a time at which a
// cross-shard arrival could still land. The routing delay is the lookahead
// channel: a job forwarded off its home shard arrives delay seconds late,
// and because every not-yet-routed job has submit >= b, its effective
// submission is >= b too — each epoch's release set is complete and final
// when the shards start running. That is the SST conservative-federate
// scheme with the ingest boundary as the synchronization interface
// (DESIGN.md §3.14).
//
// Determinism: routing is single-threaded at barriers, shards are
// independent between barriers, and futures are awaited in shard order —
// results are bit-identical for every pool size. Equivalence: a federation
// with a recorded router equals the matching single-shard batch runs on
// the per-shard traces (perShardTraces), bit for bit; tests/
// test_federation.cpp pins both, sps_fuzz's federation lane hammers them.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "check/check_config.hpp"
#include "core/simulation.hpp"
#include "fed/router.hpp"
#include "metrics/collector.hpp"
#include "obs/timeline.hpp"
#include "workload/job.hpp"

namespace sps::fed {

struct FederationConfig {
  /// Cluster count. The fleet trace's machineProcs is the size of ONE
  /// cluster (every job must fit a single cluster; there is no cross-shard
  /// co-allocation in the paper's rigid-job model).
  std::uint32_t shards = 2;
  /// Seconds a job forwarded off its home shard (seq % shards) arrives
  /// late — the price of moving an input deck between clusters, and the
  /// federation's lookahead window. 0 = free forwarding.
  Time routingDelay = 0;
  /// Fixed epoch length in sim-seconds; 0 (default) sizes epochs by job
  /// count instead (jobsPerEpoch), which keeps barrier counts bounded on
  /// multi-year fleet traces. Given a routing record, results are invariant
  /// to this knob — epoch boundaries only batch work, they never change a
  /// schedule. (A load-observing router's DECISIONS may differ under a
  /// different cadence, since its inputs are barrier snapshots; replaying
  /// its recorded assignments is cadence-invariant again.)
  Time epochLength = 0;
  /// Auto-epoch batch size: each epoch routes roughly this many jobs.
  std::size_t jobsPerEpoch = 4096;
  /// Worker threads for the shard pool (0 = hardware concurrency).
  std::size_t threads = 0;
  /// Arm the 2 MB/s disk-swap suspension overhead model on every shard
  /// (built per shard over the shard's own stream, so per-job costs match
  /// the single-cluster replay bit for bit).
  bool diskSwapOverhead = false;
  /// Invariant-oracle toggles, armed per shard.
  check::CheckConfig check{};
  /// Sim-clock timeline sampling, armed per shard; the series land in the
  /// per-shard RunStats (mergeable downstream via the quantile sketches).
  obs::TimelineConfig timeline{};
};

/// Everything a federated run produced: the per-shard runs plus the
/// routing record that makes the run replayable and auditable.
struct FleetStats {
  /// Per-shard collected runs, indexed by shard. traceName is
  /// "<fleet>/shard<i>"; counters/timeline/jobs are the shard's own.
  std::vector<metrics::RunStats> shards;
  /// Shard index of every fleet job, by fleet job id (the replay record).
  std::vector<std::uint32_t> assignments;
  /// Effective submission instant of every fleet job: submit, plus the
  /// routing delay when the job was forwarded off its home shard.
  std::vector<Time> effectiveSubmits;
  /// Conservative epochs executed (barrier count).
  std::uint64_t epochs = 0;
  /// Jobs routed off their home shard (each pays routingDelay).
  std::uint64_t forwarded = 0;

  // --- fleet aggregates ----------------------------------------------------
  [[nodiscard]] std::uint64_t jobCount() const;
  [[nodiscard]] std::uint64_t eventsProcessed() const;
  [[nodiscard]] std::uint64_t suspensions() const;
  /// Sum of every shard's counter block (obs::Counters::merge).
  [[nodiscard]] obs::Counters counters() const;
  /// Job-weighted mean bounded slowdown across shards.
  [[nodiscard]] double meanBoundedSlowdown() const;
  /// Processor-second-weighted utilization across shards.
  [[nodiscard]] double utilization() const;
  /// Latest shard makespan (first fleet submit to last fleet completion).
  [[nodiscard]] Time span() const;
};

class Federation {
 public:
  /// The fleet trace must satisfy validateTrace(); machineProcs is the
  /// per-cluster size. The spec must be fully resolved (tss limits
  /// bootstrapped by the caller — from the fleet trace, so every shard and
  /// every replay sees identical limits). Router and trace must outlive
  /// run().
  Federation(const workload::Trace& fleetTrace, const core::PolicySpec& spec,
             JobRouter& router, FederationConfig config);

  /// Execute the federated run to completion. Call once.
  [[nodiscard]] FleetStats run();

 private:
  const workload::Trace& trace_;
  core::PolicySpec spec_;
  JobRouter& router_;
  FederationConfig config_;
  bool ran_ = false;
};

/// Rebuild the per-cluster traces a federated run induced: shard i's trace
/// holds exactly the jobs with assignments[id] == i, submitted at their
/// effective instants, ids re-numbered densely in shard arrival order, and
/// named "<fleet>/shard<i>" — the single-cluster workloads whose batch
/// runs the equivalence battery compares against the federation, bit for
/// bit.
[[nodiscard]] std::vector<workload::Trace> perShardTraces(
    const workload::Trace& fleetTrace,
    const std::vector<std::uint32_t>& assignments,
    const std::vector<Time>& effectiveSubmits, std::uint32_t shards);

}  // namespace sps::fed
