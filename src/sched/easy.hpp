// Aggressive (EASY) backfilling (Section II-A.2 of the paper).
//
// Only the job at the head of the queue holds a reservation: the earliest
// time the required processors are expected to free up given running jobs'
// estimates (the "shadow time"). Any other queued job may start immediately
// if it fits in the currently-free processors AND one of the two conditions
// that protect the head job holds:
//   (1) it is estimated to terminate by the shadow time, or
//   (2) it uses no more processors than will remain free at the shadow time
//       once the head job starts (the "extra" processors).
//
// This is the paper's "No Suspension (NS)" baseline for every evaluation.
// The shadow/extra query lives in sched/core's BackfillEngine over a
// ReservationLedger; this file keeps the queue discipline, the scan loop
// and, in KernelMode::Incremental, the head's shadow between decisions (it
// is queried again only when the head or the ledger changes other than by
// EASY's own backfill starts, which update it in O(1)).
#pragma once

#include <vector>

#include "sched/core/backfill_engine.hpp"
#include "sched/core/reservation_ledger.hpp"
#include "sim/policy.hpp"

namespace sps::sched {

/// Queue discipline for the backfilling queue.
enum class QueueOrder {
  /// Submission order — the classical EASY scheduler (the paper's NS).
  Fcfs,
  /// Shortest estimated runtime first (SJF-backfill, a common variant in
  /// the backfilling literature; ties broken by submission). Trades
  /// fairness for average slowdown — a useful non-preemptive comparison
  /// point for SS, which achieves short-job service *with* a starvation
  /// guarantee.
  ShortestFirst,
};

struct EasyConfig {
  QueueOrder order = QueueOrder::Fcfs;
  kernel::KernelMode kernelMode = kernel::KernelMode::Incremental;
};

class EasyBackfill final : public sim::SchedulingPolicy {
 public:
  EasyBackfill() = default;
  explicit EasyBackfill(EasyConfig config)
      : config_(config), ledger_(config.kernelMode) {}

  [[nodiscard]] std::string name() const override {
    return config_.order == QueueOrder::Fcfs ? "EASY (NS)" : "SJF-BF";
  }

  void onSimulationStart(sim::Simulator& simulator) override;
  void onJobArrival(sim::Simulator& simulator, JobId job) override;
  void onJobCompletion(sim::Simulator& simulator, JobId job) override;
  /// Cancellation only ever removes a queue entry — the ledger tracks
  /// running jobs, and the kept shadow is keyed on the head, so there is
  /// no bound future state to repair.
  [[nodiscard]] bool supportsCancel() const override { return true; }
  void onJobCancelled(sim::Simulator& simulator, JobId job) override;
  void onSimulationEnd(sim::Simulator& simulator) override;

  /// Number of backfilled starts (started ahead of an earlier-submitted
  /// queued job), for tests and diagnostics.
  [[nodiscard]] std::uint64_t backfillCount() const { return backfills_; }

  /// The kernel ledger backing this policy, for the sps::check ledger
  /// audit. Read-only.
  [[nodiscard]] const kernel::ReservationLedger& ledger() const {
    return ledger_;
  }

 private:
  void schedulePass(sim::Simulator& simulator);
  void enqueue(const sim::Simulator& simulator, JobId job);
  /// Bring shadow_ up to date for the queue head (the ledger refreshed).
  void headShadow(const sim::Simulator& simulator);
  /// Start a backfill candidate that passed canBackfill against shadow_.
  void backfill(sim::Simulator& simulator, JobId job);

  EasyConfig config_;
  kernel::ReservationLedger ledger_;
  kernel::BackfillEngine engine_{ledger_};
  /// A queued job with its width, so the Incremental scan can pass over
  /// jobs wider than the free processors without reading their records.
  struct Queued {
    JobId id;
    std::uint32_t procs;
  };
  std::vector<Queued> queue_;  ///< FCFS or shortest-first, per config
  /// The head's reservation, valid for shadowHead_ at ledger version
  /// shadowVersion_ (attach bumps the version past the initial key).
  kernel::BackfillEngine::Shadow shadow_{};
  JobId shadowHead_ = 0;
  std::uint64_t shadowVersion_ = 0;
  std::uint64_t backfills_ = 0;
};

}  // namespace sps::sched
