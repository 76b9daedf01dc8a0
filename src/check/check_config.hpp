// CheckConfig — toggle block for the sps::check invariant oracle.
//
// Plain data with no dependencies so core::SimulationOptions can embed one
// without pulling the checker machinery into every translation unit. All
// checkers default off: a default-constructed config arms nothing and
// runSimulation skips the checker entirely (off ≈ zero cost).
#pragma once

#include <cstdint>

namespace sps::check {

struct CheckConfig {
  /// No processor oversubscription: the union of processor sets held by
  /// Running/Suspending jobs and the machine's free set partition the
  /// machine, and no two jobs' sets overlap (mirrored from transitions, so
  /// a double-allocation is caught even if Machine's own books agree).
  bool capacity = false;

  /// Transition legality + lifecycle conservation: every arrived job is
  /// arrived exactly once, started before it finishes, suspended exactly as
  /// often as it is resumed (+1 if suspended at the end, which never
  /// survives a completed run), finished exactly once; and the sps::obs
  /// counters (sim.starts / sim.resumes / sim.suspensions and the
  /// per-category breakdown) balance against the observed stream.
  bool conservation = false;

  /// Guarantee monotonicity: a queued job's start-time guarantee
  /// (conservative / depth-K anchor, via guaranteeOf) never moves later —
  /// the paper's no-starvation argument for reservation-based backfilling.
  bool guarantees = false;

  /// TSS bound compliance: no job is suspended while its priority
  /// (slowdown-at-suspension) already meets its category's victim-
  /// protection limit — the tunable guarantee of Section IV-E.
  bool tssBound = false;

  /// Ledger/profile consistency: the ReservationLedger's incrementally-
  /// maintained AvailabilityProfile matches a from-scratch rebuild at
  /// sampled epochs, and its running layer matches the simulator's running
  /// set exactly.
  bool ledger = false;

  /// Liveness: the run may not stall. At each policy timer, a run where no
  /// job is Running or Suspending, no arrival is left (streamed runs: only
  /// once drain() has begun) and some job is Queued or Suspended must have
  /// made a transition since the previous timer that found it so. Nothing
  /// else can change what the policy sees, so a policy that strands its
  /// jobs and keeps re-arming its timer would otherwise spin forever.
  bool liveness = false;

  /// Stride for the sampled audits (ledger rebuild comparison and the
  /// guarantee poll): run them on every auditStride-th dispatched event.
  /// 1 = every event (what the fuzzer and the test suites use); the CLI
  /// default keeps the oracle affordable on long traces.
  std::uint32_t auditStride = 16;

  [[nodiscard]] bool any() const {
    return capacity || conservation || guarantees || tssBound || ledger ||
           liveness;
  }

  /// Everything armed at the given stride.
  [[nodiscard]] static CheckConfig all(std::uint32_t stride = 16) {
    CheckConfig c;
    c.capacity = c.conservation = c.guarantees = c.tssBound = c.ledger =
        c.liveness = true;
    c.auditStride = stride == 0 ? 1 : stride;
    return c;
  }
};

}  // namespace sps::check
