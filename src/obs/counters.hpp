// Counters — the cheap half of the observability layer (sps::obs).
//
// One Counters block lives inside every Simulator (owned, or supplied via
// Simulator::Config::recorder), so counts are per-simulation by
// construction: concurrent runs on a core::Runner never share a block and
// the values are bit-identical for any thread count. An increment is one
// array add with no branches, so the counters stay on even when the run
// has no trace sink.
//
// The slots mirror the quantities the paper's evaluation and the kernel's
// perf work care about: suspensions (total and per Table-I category),
// backfill successes/failures, the incremental kernel's fast-path vs
// full-pass split, victim-index work, and the ledger's profile maintenance
// operations. metrics::collect() copies the block into RunStats, where it
// reaches the JSON export and RunResult.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace sps::obs {

/// Every counter the library maintains. Grouped by owning layer; the dense
/// enum doubles as the array index, so adding a slot is one enum entry plus
/// one name.
enum class Counter : std::uint8_t {
  // --- simulator (sim/) --------------------------------------------------
  SimEvents,           ///< events dispatched by the run loop
  SimClockAdvances,    ///< events that moved the clock forward
  SimTransitions,      ///< job state transitions
  SimStarts,           ///< Queued -> Running
  SimResumes,          ///< Suspended -> Running
  SimSuspensions,      ///< Running -> Suspending/Suspended
  // --- scheduling kernel: reservation ledger (sched/core/) ---------------
  LedgerAddBusy,       ///< busy intervals entered into the profile
  LedgerRemoveBusy,    ///< busy intervals released from the profile
  LedgerShiftOrigins,  ///< incremental refreshes (origin advance only)
  LedgerRebuilds,      ///< full profile reconstructions (Rebuild refresh)
  LedgerReservationsAdded,
  LedgerReservationsRemoved,
  // --- scheduling kernel: victim index ------------------------------------
  VictimInserts,       ///< running jobs entered into the VictimIndex
  VictimRemoves,       ///< running jobs dropped from the VictimIndex
  VictimBoundSkips,    ///< candidates rejected by the gain upper bound alone
  // --- scheduling kernel: backfill engine --------------------------------
  AnchorQueries,       ///< earliest-anchor scans over the profile
  ShadowQueries,       ///< shadow-time computations for a pivot job
  BackfillTests,       ///< canBackfill evaluations
  // --- policies (sched/) -------------------------------------------------
  BackfillStarts,      ///< jobs started out of order past a blocked head
  BackfillRejects,     ///< failed canBackfill tests at a decision point
  ArrivalFastPaths,    ///< arrivals handled without a full schedule pass
  CompletionFastPaths, ///< on-time completions that skipped compression
  FullPasses,          ///< full schedule passes / compressions / rebuilds
  FenceScans,          ///< SS claim/lease fence recomputations
  VictimTests,         ///< SS victim-eligibility evaluations
  Preemptions,         ///< suspensions issued by the SS preemption pass
  PassSkips,           ///< SS preemption passes proven no-ops and skipped
  DispatchSkips,       ///< SS dispatches proven no-ops and skipped
  GateReports,         ///< SS idle candidates the tick gate hands the pass
  ResumeWalkReads,     ///< suspended jobs the SS resume walk reads
  // --- invariant oracle (check/) ------------------------------------------
  CheckTransitionAudits,  ///< state transitions audited by sps::check
  CheckEpochAudits,       ///< sampled epoch audits (guarantee poll + ledger)
  // --- telemetry (obs/timeline) -------------------------------------------
  TimelineSamples,      ///< time-series points recorded by TimelineRecorder
  TimelineDecimations,  ///< 2x decimations after hitting the sample cap
  // --- experiment engine (core/) ------------------------------------------
  RunnerHookExceptions,  ///< RunCompleteHook invocations that threw
  kCount,
};

inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCount);

/// Stable dotted identifier of a counter ("sim.suspensions",
/// "kernel.victim.inserts", ...) — the key used in the metrics JSON export.
[[nodiscard]] const char* counterName(Counter counter);

class Counters {
 public:
  /// Suspension breakdown slots — one per Table-I category (run class x
  /// width class). Kept as a plain constant so obs does not depend on
  /// workload/; the simulator static_asserts it against kNumCategories16.
  static constexpr std::size_t kSuspensionCategories = 16;

  void inc(Counter counter) { ++values_[index(counter)]; }
  void add(Counter counter, std::uint64_t n) { values_[index(counter)] += n; }
  [[nodiscard]] std::uint64_t value(Counter counter) const {
    return values_[index(counter)];
  }

  void incSuspensionCategory(std::size_t category) {
    ++suspensionsByCategory_[category];
  }
  [[nodiscard]] const std::array<std::uint64_t, kSuspensionCategories>&
  suspensionsByCategory() const {
    return suspensionsByCategory_;
  }

  void reset() { *this = Counters{}; }
  [[nodiscard]] bool anyNonZero() const;

  friend bool operator==(const Counters&, const Counters&) = default;

 private:
  static constexpr std::size_t index(Counter counter) {
    return static_cast<std::size_t>(counter);
  }

  std::array<std::uint64_t, kCounterCount> values_{};
  std::array<std::uint64_t, kSuspensionCategories> suspensionsByCategory_{};
};

}  // namespace sps::obs
