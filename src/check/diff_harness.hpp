// DiffHarness — the differential half of sps::check.
//
// Cross-checking two independent implementations of the same scheduler is
// the standing trust argument for scheduling simulators; here the two
// implementations already exist: every kernel policy runs under
// KernelMode::Incremental (amortized ledger maintenance) and
// KernelMode::Rebuild (the pre-kernel per-event reconstruction). The
// harness runs a workload through both with the invariant oracle armed and
// diffs the full schedules — any divergence or invariant firing is a bug by
// construction.
//
// A failing case shrinks via a greedy job-removal minimizer and round-trips
// through a self-contained text repro file (policy token + overhead flag +
// machine + job list) that tests/test_fuzz_corpus.cpp replays under ctest.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <tuple>
#include <vector>

#include "check/check_config.hpp"
#include "core/simulation.hpp"
#include "sched/core/reservation_ledger.hpp"
#include "workload/job.hpp"

namespace sps::check {

/// One differential test case: a policy (compact token form), the
/// suspension-overhead toggle, and the workload.
struct FuzzCase {
  /// Policy token: "conservative", "easy", "sjf", "fcfs", "gang", "is",
  /// "depth:<K|inf>", "ss:<SF>", "tss:<SF>" (limits bootstrapped from the
  /// trace's NS run), "tss-online:<mult>".
  std::string policyToken = "ss:2";
  /// Run with the DiskSwap suspension/restart overhead model.
  bool overhead = false;
  workload::Trace trace;
  /// Federated lane (sps::fed): when fedShards > 0, the case is a fleet
  /// trace run as a federation of that many clusters (each of
  /// trace.machineProcs processors) and diffed against its per-shard
  /// replay (fed::diffFederated). 0 = a plain single-cluster case.
  std::uint32_t fedShards = 0;
  /// Router token for the federated lane ("hash" | "least-loaded").
  std::string fedRouter = "hash";
  /// Cross-cluster forwarding delay for the federated lane, seconds.
  Time fedDelay = 0;
};

/// Parse a policy token into a spec (kernel mode left at default). Throws
/// InputError on an unknown token. The "tss:" bootstrap marker is resolved
/// by the harness, which owns the trace.
[[nodiscard]] core::PolicySpec policyFromToken(const std::string& token);

/// Resolve a case's full spec, including the "tss:" bootstrap (limits
/// calibrated from the case trace's own NS run — deterministic and
/// kernel-mode independent, so every lane of a diff sees identical
/// limits). The federated lane resolves against the *fleet* trace through
/// this same call, so federation shards and their single-cluster replays
/// agree on the limits too.
[[nodiscard]] core::PolicySpec resolveCaseSpec(const FuzzCase& c);

/// The standing fuzz set: every policy family x the paper's interesting
/// parameter points. Each runs under both kernel modes per case.
[[nodiscard]] std::vector<std::string> fuzzPolicyTokens();

/// Seeded adversarial workload generator. Rotates through shapes the
/// golden suite never covers: SyntheticTraceGenerator runs concentrated on
/// corner categories, same-instant arrival bursts, full-width/single-proc
/// storms on tiny machines — then stamps estimates from accurate through
/// pathologically overestimated. Deterministic in `seed`.
[[nodiscard]] workload::Trace makeFuzzTrace(std::uint64_t seed);

/// A complete case for fuzz iteration i of a --seed run: trace, overhead
/// flag, and the given policy, all deterministic in (seed, token).
[[nodiscard]] FuzzCase makeFuzzCase(std::uint64_t seed, std::string token);

/// Everything one mode's run produced that the other mode must reproduce.
struct RunRecord {
  /// (time, job, from, to) for every state transition, in order.
  std::vector<std::tuple<Time, JobId, int, int>> transitions;
  std::vector<Time> firstStart;
  std::vector<Time> finish;
  std::vector<std::uint32_t> suspendCount;
};

struct DiffOutcome {
  /// First-divergence description; empty when the schedules are identical.
  std::string divergence;
  /// First invariant firing (InvariantError::what); empty when silent.
  std::string violation;
  [[nodiscard]] bool ok() const {
    return divergence.empty() && violation.empty();
  }
};

class DiffHarness {
 public:
  explicit DiffHarness(CheckConfig checks = CheckConfig::all(1))
      : checks_(checks) {}

  /// Run the case once under `mode` with the oracle armed. On an invariant
  /// firing, *violation gets the message and the (partial) record returns.
  [[nodiscard]] RunRecord runOnce(const FuzzCase& c,
                                  sched::kernel::KernelMode mode,
                                  std::string* violation) const;

  /// Run under both kernel modes and diff the records.
  [[nodiscard]] DiffOutcome diff(const FuzzCase& c) const;

  /// Run the case once under `mode` through the streaming ingest boundary:
  /// the trace is chopped into seeded segments, each submitted as a block
  /// after advancing the simulator under bounded lookahead. Coarse segments
  /// deliberately leave several future arrivals pending behind the arrival
  /// cursor at once — the interleaving the per-job pump
  /// (core::runSimulation's streaming overload) never produces. Same
  /// record/violation contract as runOnce.
  [[nodiscard]] RunRecord runStreamed(const FuzzCase& c,
                                      sched::kernel::KernelMode mode,
                                      std::uint64_t seed,
                                      std::string* violation) const;

  /// Golden equivalence across the ingest boundary: for each kernel mode,
  /// batch vs streamed replay of the same case must be bit-identical.
  /// A divergence here is an ingest-boundary bug (ordering, steady-state
  /// snapshot, index growth), not a kernel one.
  [[nodiscard]] DiffOutcome diffStreamed(const FuzzCase& c,
                                         std::uint64_t seed) const;

  /// Greedy job-removal minimizer: smallest sub-trace of `c` that still
  /// fails diff(). Requires !diff(c).ok(); at most `maxRuns` diff
  /// evaluations.
  [[nodiscard]] FuzzCase shrink(const FuzzCase& c,
                                std::size_t maxRuns = 400) const;

  /// Generalized minimizer: same greedy chunk removal, but against any
  /// failure oracle — the federated fuzz lane shrinks with
  /// fed::diffFederated as the predicate. `stillFails(candidate)` must
  /// return true while the candidate reproduces the failure.
  [[nodiscard]] static FuzzCase shrinkWith(
      const FuzzCase& c,
      const std::function<bool(const FuzzCase&)>& stillFails,
      std::size_t maxRuns = 400);

 private:
  CheckConfig checks_;
};

/// Repro file I/O (line-based text; see tests/corpus/*.repro).
void writeRepro(std::ostream& os, const FuzzCase& c);
[[nodiscard]] FuzzCase readRepro(std::istream& is);  ///< throws InputError

}  // namespace sps::check
