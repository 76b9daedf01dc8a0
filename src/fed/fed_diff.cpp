#include "fed/fed_diff.hpp"

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "check/fleet_audit.hpp"
#include "fed/federation.hpp"
#include "metrics/openmetrics.hpp"
#include "sched/overhead.hpp"
#include "sched/policy_factory.hpp"
#include "util/check.hpp"

namespace sps::fed {

namespace {

using check::CheckConfig;
using check::DiffOutcome;
using check::FuzzCase;
using sched::kernel::KernelMode;

[[nodiscard]] const char* modeName(KernelMode mode) {
  return mode == KernelMode::Rebuild ? "rebuild" : "incremental";
}

/// One single-cluster batch run of a shard's induced trace, configured
/// exactly as the federation configured that shard: same resolved spec,
/// same oracle toggles, and — when the case models suspension cost — a
/// DiskSwapOverhead over the shard trace, whose rows match the shard's
/// grown-as-submitted copy id for id.
[[nodiscard]] metrics::RunStats runShardBatch(const FuzzCase& c,
                                              const core::PolicySpec& spec,
                                              const workload::Trace& shard,
                                              const CheckConfig& checks) {
  std::optional<sched::DiskSwapOverhead> overhead;
  core::SimulationOptions options;
  options.check = checks;
  if (c.overhead) {
    overhead.emplace(shard);
    options.sim.overhead = &*overhead;
  }
  return core::runSimulation(shard, spec, options);
}

[[nodiscard]] DiffOutcome diffMode(const FuzzCase& c,
                                   const CheckConfig& checks,
                                   std::size_t threads, KernelMode mode) {
  DiffOutcome out;
  const core::PolicySpec spec =
      sched::withKernelMode(check::resolveCaseSpec(c), mode);

  FederationConfig config;
  config.shards = c.fedShards;
  config.routingDelay = c.fedDelay;
  config.threads = threads;
  config.diskSwapOverhead = c.overhead;
  config.check = checks;

  // Lane 1: the live router, with the conservation audit over its record.
  FleetStats fleet;
  try {
    const auto router = routerFromToken(c.fedRouter);
    Federation federation(c.trace, spec, *router, config);
    fleet = federation.run();
    check::auditFleetConservation(c.trace, fleet.shards, fleet.assignments,
                                  fleet.effectiveSubmits, c.fedShards,
                                  c.fedDelay);
  } catch (const InvariantError& e) {
    out.violation = std::string(modeName(mode)) + ": " + e.what();
    return out;
  }

  // Lane 2: a federation driven by the recorded assignments must retrace
  // the live run exactly — the "recorded router" half of the theorem.
  FleetStats replay;
  try {
    ReplayRouter recorded(fleet.assignments);
    Federation federation(c.trace, spec, recorded, config);
    replay = federation.run();
  } catch (const InvariantError& e) {
    out.violation = std::string(modeName(mode)) + " replay: " + e.what();
    return out;
  }
  if (replay.assignments != fleet.assignments ||
      replay.effectiveSubmits != fleet.effectiveSubmits) {
    out.divergence = std::string(modeName(mode)) +
                     ": recorded-router replay routed the fleet differently";
    return out;
  }

  // Lane 3: each shard against its single-cluster batch run, bit for bit.
  const std::vector<workload::Trace> shardTraces = perShardTraces(
      c.trace, fleet.assignments, fleet.effectiveSubmits, c.fedShards);
  for (std::uint32_t s = 0; s < c.fedShards; ++s) {
    const std::string fedMetrics = metrics::openMetrics(fleet.shards[s]);
    if (metrics::openMetrics(replay.shards[s]) != fedMetrics) {
      std::ostringstream os;
      os << modeName(mode) << ": shard " << s
         << " metrics differ between the live and recorded-router runs";
      out.divergence = os.str();
      return out;
    }
    metrics::RunStats batch;
    try {
      batch = runShardBatch(c, spec, shardTraces[s], checks);
    } catch (const InvariantError& e) {
      std::ostringstream os;
      os << modeName(mode) << " shard " << s << " batch replay: " << e.what();
      out.violation = os.str();
      return out;
    }
    if (metrics::openMetrics(batch) != fedMetrics) {
      std::ostringstream os;
      os << modeName(mode) << ": shard " << s
         << " federation metrics differ from the single-cluster batch run";
      out.divergence = os.str();
      return out;
    }
  }
  return out;
}

}  // namespace

DiffOutcome diffFederated(const FuzzCase& c, const CheckConfig& checks,
                          std::size_t threads) {
  SPS_CHECK_MSG(c.fedShards > 0,
                "diffFederated: case has no federated lane (fedShards == 0)");
  for (const KernelMode mode :
       {KernelMode::Rebuild, KernelMode::Incremental}) {
    DiffOutcome out = diffMode(c, checks, threads, mode);
    if (!out.ok()) return out;
  }
  return {};
}

}  // namespace sps::fed
