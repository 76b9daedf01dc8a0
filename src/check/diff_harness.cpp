#include "check/diff_harness.hpp"

#include <algorithm>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "core/experiment.hpp"
#include "sched/overhead.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"
#include "util/fields.hpp"
#include "util/rng.hpp"
#include "workload/estimate_model.hpp"
#include "workload/synthetic.hpp"
#include "workload/transforms.hpp"

namespace sps::check {

namespace {

using sched::kernel::KernelMode;

std::string describeTransition(const std::tuple<Time, JobId, int, int>& t) {
  std::ostringstream os;
  os << "t=" << std::get<0>(t) << " job=" << std::get<1>(t) << " "
     << std::get<2>(t) << "->" << std::get<3>(t);
  return os.str();
}

std::string diffRecords(const RunRecord& inc, const RunRecord& reb,
                        const char* lhs = "incremental",
                        const char* rhs = "rebuild") {
  const std::size_t n = std::min(inc.transitions.size(),
                                 reb.transitions.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (inc.transitions[i] == reb.transitions[i]) continue;
    std::ostringstream os;
    os << "schedules diverge at transition " << i << ": " << lhs << " ("
       << describeTransition(inc.transitions[i]) << ") vs " << rhs << " ("
       << describeTransition(reb.transitions[i]) << ")";
    return os.str();
  }
  if (inc.transitions.size() != reb.transitions.size()) {
    std::ostringstream os;
    os << "transition counts differ: " << lhs << " " << inc.transitions.size()
       << " vs " << rhs << " " << reb.transitions.size();
    return os.str();
  }
  for (std::size_t id = 0; id < inc.firstStart.size(); ++id) {
    if (inc.firstStart[id] != reb.firstStart[id] ||
        inc.finish[id] != reb.finish[id] ||
        inc.suspendCount[id] != reb.suspendCount[id]) {
      std::ostringstream os;
      os << "per-job records diverge for job " << id << ": " << lhs
         << " (start " << inc.firstStart[id] << ", finish " << inc.finish[id]
         << ", " << inc.suspendCount[id] << " suspensions) vs " << rhs
         << " (start " << reb.firstStart[id] << ", finish " << reb.finish[id]
         << ", " << reb.suspendCount[id] << " suspensions)";
      return os.str();
    }
  }
  return "";
}

/// "[<lane>] <text>": names the run a finding came from. Appends into one
/// buffer; the `"[" + std::string(...)` form trips GCC 12's -Wrestrict
/// false positive in Release builds.
std::string inLane(std::string_view lane, std::string_view text) {
  std::string out;
  out.reserve(lane.size() + text.size() + 3);
  out += '[';
  out += lane;
  out += "] ";
  out += text;
  return out;
}

// --- workload shapes -------------------------------------------------------

workload::Job makeJob(Time submit, Time runtime, std::uint32_t procs,
                      std::uint32_t memoryMb) {
  workload::Job j;
  j.submit = submit;
  j.runtime = runtime;
  j.estimate = runtime;
  j.procs = procs;
  j.memoryMb = memoryMb;
  return j;
}

/// workload::generateTrace concentrated on a few corner categories.
/// generateTrace requires machineProcs > 32 (the VeryWide band needs room),
/// so this shape runs on the larger machines.
workload::Trace cornerSynthetic(Rng& rng, std::size_t jobs) {
  // The paper-scale machines plus two scale-out sizes that force ProcSet's
  // windowed large-set mode (procs >= 1024) through every policy and both
  // kernel modes.
  static constexpr std::uint32_t kMachines[] = {64,   100,  128,
                                                430,  4096, 65'536};
  workload::SyntheticConfig cfg;
  cfg.name = "fuzz-corner";
  cfg.machineProcs = kMachines[rng.uniformInt(0, 5)];
  // Scale the width bands with the machine past the inline boundary so the
  // big configs exercise wide-window sets instead of 99% VeryWide jobs.
  cfg.scaleWidthBands = cfg.machineProcs > 1024;
  cfg.jobCount = jobs;
  cfg.seed = rng.next();
  const int corners = static_cast<int>(rng.uniformInt(1, 3));
  for (int k = 0; k < corners; ++k)
    cfg.categoryMix[static_cast<std::size_t>(rng.uniformInt(0, 15))] = 1.0;
  cfg.offeredLoad = rng.uniform(0.5, 1.4);
  cfg.widthAlpha = rng.uniform(1.0, 3.2);
  cfg.minRuntime = 1;
  // generateTrace needs the Long band non-empty (maxRuntime > 8 h); vary
  // the tail so short-heavy and long-heavy category mixes both occur.
  cfg.maxRuntime = kHour * rng.uniformInt(9, 48);
  if (rng.uniform01() < 0.3) cfg.diurnalAmplitude = rng.uniform(0.3, 0.9);
  return workload::generateTrace(cfg);
}

/// Same-instant arrival bursts on a (usually tiny) machine.
workload::Trace burstTrace(Rng& rng, std::uint32_t machineProcs,
                           std::size_t jobs) {
  workload::Trace trace;
  trace.name = "fuzz-burst";
  trace.machineProcs = machineProcs;
  Time now = 0;
  while (trace.jobs.size() < jobs) {
    const auto burst = static_cast<std::size_t>(rng.uniformInt(1, 12));
    for (std::size_t k = 0; k < burst && trace.jobs.size() < jobs; ++k) {
      const Time runtime = rng.logUniformInt(1, 2 * kHour);
      std::uint32_t procs;
      const double p = rng.uniform01();
      if (p < 0.3) {
        procs = 1;
      } else if (p < 0.5) {
        procs = machineProcs;  // full-width: serializes the whole machine
      } else {
        procs = static_cast<std::uint32_t>(rng.uniformInt(1, machineProcs));
      }
      const auto mem = static_cast<std::uint32_t>(rng.uniformInt(0, 1024));
      trace.jobs.push_back(makeJob(now, runtime, procs, mem));
    }
    // Most bursts land on the same instant as the next one; the rest leave
    // a gap up to two hours.
    if (rng.uniform01() >= 0.3)
      now += rng.logUniformInt(1, 2 * kHour);
  }
  return trace;
}

/// Alternating full-width long jobs and narrow shorts with tight arrivals —
/// the shape that maximizes preemption pressure and backfill churn.
workload::Trace widthStorm(Rng& rng, std::uint32_t machineProcs,
                           std::size_t jobs) {
  workload::Trace trace;
  trace.name = "fuzz-widths";
  trace.machineProcs = machineProcs;
  Time now = 0;
  for (std::size_t i = 0; i < jobs; ++i) {
    workload::Job j;
    if (i % 7 == 0) {
      j = makeJob(now, rng.logUniformInt(30 * kMinute, 4 * kHour),
                  machineProcs,
                  static_cast<std::uint32_t>(rng.uniformInt(100, 1024)));
    } else {
      const auto half = std::max<std::uint32_t>(1, machineProcs / 2);
      j = makeJob(now, rng.logUniformInt(1, 20 * kMinute),
                  static_cast<std::uint32_t>(rng.uniformInt(1, half)),
                  static_cast<std::uint32_t>(rng.uniformInt(0, 512)));
    }
    trace.jobs.push_back(j);
    now += rng.uniformInt(0, 10 * kMinute);
  }
  return trace;
}

/// Estimate regimes from exact through pathological overestimates.
void stampEstimates(Rng& rng, workload::Trace& trace) {
  const double p = rng.uniform01();
  if (p < 0.3) return;  // accurate: estimate == runtime, as generated
  if (p < 0.6) {
    workload::EstimateModelConfig cfg;
    cfg.kind = workload::EstimateModelKind::Modal;
    cfg.seed = rng.next();
    workload::applyEstimates(trace, cfg);
  } else if (p < 0.8) {
    workload::EstimateModelConfig cfg;
    cfg.kind = workload::EstimateModelKind::UniformFactor;
    cfg.seed = rng.next();
    cfg.maxFactor = rng.uniform(2.0, 100.0);
    workload::applyEstimates(trace, cfg);
  } else {
    // Pathological: every estimate wildly over, a fixed huge factor per
    // job — the regime where belief-based profiles are most wrong.
    for (workload::Job& j : trace.jobs)
      j.estimate = j.runtime * rng.uniformInt(10, 1000);
  }
}

}  // namespace

core::PolicySpec resolveCaseSpec(const FuzzCase& c) {
  core::PolicySpec spec = sched::specFromToken(c.policyToken);
  if (c.policyToken.rfind("tss:", 0) == 0)
    spec.ss.tssLimits = core::bootstrapTssLimits(c.trace);
  return spec;
}

workload::Trace makeFuzzTrace(std::uint64_t seed) {
  Rng rng(seed);
  static constexpr std::uint32_t kTinyMachines[] = {2, 3, 5, 8, 13, 32, 100};
  const auto machineProcs =
      kTinyMachines[rng.uniformInt(0, 6)];
  const auto jobs = static_cast<std::size_t>(rng.uniformInt(20, 120));
  workload::Trace trace;
  switch (rng.uniformInt(0, 2)) {
    case 0: trace = cornerSynthetic(rng, jobs); break;
    case 1: trace = burstTrace(rng, machineProcs, jobs); break;
    default: trace = widthStorm(rng, machineProcs, jobs); break;
  }
  stampEstimates(rng, trace);
  workload::normalizeTrace(trace);
  workload::validateTrace(trace);
  return trace;
}

FuzzCase makeFuzzCase(std::uint64_t seed, std::string token) {
  SplitMix64 mix(seed);
  FuzzCase c;
  c.policyToken = std::move(token);
  const std::uint64_t traceSeed = mix.next();
  c.overhead = (mix.next() & 1) != 0;
  c.trace = makeFuzzTrace(traceSeed);
  return c;
}

namespace {

/// Shared body of runOnce/runStreamed: build the run (batch or streaming)
/// through core::SimulationHarness with the oracle armed and the
/// transition recorder instrumented, run `drive`, finish, harvest.
template <typename Drive>
RunRecord runRecorded(const CheckConfig& checks, const FuzzCase& c,
                      KernelMode mode, bool streamed, Drive&& drive,
                      std::string* violation) {
  const core::PolicySpec spec =
      sched::withKernelMode(resolveCaseSpec(c), mode);
  std::optional<sched::DiskSwapOverhead> overhead;
  core::SimulationOptions options;
  options.check = checks;
  if (c.overhead) {
    // Per-job costs are precomputed by id from the original trace; the
    // streamed lane assigns identical ids (stream order == trace order).
    overhead.emplace(c.trace);
    options.sim.overhead = &*overhead;
  }
  RunRecord record;
  options.instrument = [&record](sim::Simulator& simulator) {
    simulator.observers().onStateChange(
        [&record](const sim::Simulator& s, JobId id, sim::JobState from,
                  sim::JobState to) {
          record.transitions.emplace_back(s.now(), id, static_cast<int>(from),
                                          static_cast<int>(to));
        });
  };
  std::optional<core::SimulationHarness> harness;
  if (streamed)
    harness.emplace(c.trace.name, c.trace.machineProcs, spec, options);
  else
    harness.emplace(c.trace, spec, options);
  sim::Simulator& simulator = harness->simulator();
  try {
    drive(simulator);
    (void)harness->finish();
  } catch (const InvariantError& e) {
    if (violation != nullptr) *violation = e.what();
    return record;
  }
  for (JobId id = 0; id < c.trace.jobs.size(); ++id) {
    record.firstStart.push_back(simulator.exec(id).firstStart);
    record.finish.push_back(simulator.exec(id).finish);
    record.suspendCount.push_back(simulator.exec(id).suspendCount);
  }
  return record;
}

}  // namespace

RunRecord DiffHarness::runOnce(const FuzzCase& c, KernelMode mode,
                               std::string* violation) const {
  return runRecorded(
      checks_, c, mode, /*streamed=*/false,
      [](sim::Simulator& simulator) { simulator.run(); }, violation);
}

RunRecord DiffHarness::runStreamed(const FuzzCase& c, KernelMode mode,
                                   std::uint64_t seed,
                                   std::string* violation) const {
  return runRecorded(
      checks_, c, mode, /*streamed=*/true,
      [&c, seed](sim::Simulator& simulator) {
        // Seeded coarse chopping: submit the trace in blocks of 1..8 jobs.
        // Usually advance under minimum lookahead first (to the instant
        // before the block's first submit); sometimes stay put, so a block
        // lands while the simulator lags several events behind — both leave
        // multiple future arrivals pending behind the arrival cursor, which
        // the per-job pump never does.
        Rng rng(seed);
        const auto& jobs = c.trace.jobs;
        std::size_t i = 0;
        while (i < jobs.size()) {
          const auto seg = std::min<std::size_t>(
              jobs.size() - i,
              static_cast<std::size_t>(rng.uniformInt(1, 8)));
          if (rng.uniform01() < 0.7)
            simulator.runUntil(jobs[i].submit - 1);
          for (std::size_t k = 0; k < seg; ++k) simulator.submit(jobs[i + k]);
          i += seg;
        }
      },
      violation);
}

DiffOutcome DiffHarness::diffStreamed(const FuzzCase& c,
                                      std::uint64_t seed) const {
  DiffOutcome out;
  for (const KernelMode mode :
       {KernelMode::Incremental, KernelMode::Rebuild}) {
    const bool inc = mode == KernelMode::Incremental;
    const char* lane = inc ? "incremental" : "rebuild";
    std::string violation;
    const RunRecord batch = runOnce(c, mode, &violation);
    if (!violation.empty()) {
      out.violation =
          inLane(inc ? "batch/incremental" : "batch/rebuild", violation);
      return out;
    }
    const RunRecord streamed = runStreamed(c, mode, seed, &violation);
    if (!violation.empty()) {
      out.violation =
          inLane(inc ? "streamed/incremental" : "streamed/rebuild", violation);
      return out;
    }
    out.divergence = diffRecords(streamed, batch, "streamed", "batch");
    if (!out.divergence.empty()) {
      out.divergence = inLane(lane, out.divergence);
      return out;
    }
  }
  return out;
}

DiffOutcome DiffHarness::diff(const FuzzCase& c) const {
  DiffOutcome out;
  std::string violation;
  const RunRecord inc = runOnce(c, KernelMode::Incremental, &violation);
  if (!violation.empty()) {
    out.violation = "[incremental] " + violation;
    return out;
  }
  const RunRecord reb = runOnce(c, KernelMode::Rebuild, &violation);
  if (!violation.empty()) {
    out.violation = "[rebuild] " + violation;
    return out;
  }
  out.divergence = diffRecords(inc, reb);
  return out;
}

FuzzCase DiffHarness::shrink(const FuzzCase& c, std::size_t maxRuns) const {
  FuzzCase best = c;
  std::size_t runs = 0;
  bool improved = true;
  // Delta-debugging lite: try dropping ever-smaller chunks; accept any
  // removal that keeps the case failing, restart from large chunks after
  // progress. Bounded by maxRuns diff evaluations.
  while (improved && best.trace.jobs.size() > 1 && runs < maxRuns) {
    improved = false;
    for (std::size_t chunk = best.trace.jobs.size() / 2;
         chunk >= 1 && runs < maxRuns; chunk /= 2) {
      for (std::size_t start = 0;
           start + chunk <= best.trace.jobs.size() && runs < maxRuns;) {
        FuzzCase candidate = best;
        auto& js = candidate.trace.jobs;
        js.erase(js.begin() + static_cast<std::ptrdiff_t>(start),
                 js.begin() + static_cast<std::ptrdiff_t>(start + chunk));
        workload::normalizeTrace(candidate.trace);
        ++runs;
        if (!diff(candidate).ok()) {
          best = std::move(candidate);
          improved = true;
        } else {
          start += chunk;
        }
      }
    }
  }
  return best;
}

void writeRepro(std::ostream& os, const FuzzCase& c) {
  os << "sps-repro 1\n";
  os << "policy " << c.policyToken << "\n";
  os << "overhead " << (c.overhead ? 1 : 0) << "\n";
  os << "machine " << c.trace.machineProcs << "\n";
  os << "# job <submit> <runtime> <estimate> <procs> <memoryMb>\n";
  for (const workload::Job& j : c.trace.jobs)
    os << "job " << j.submit << " " << j.runtime << " " << j.estimate << " "
       << j.procs << " " << j.memoryMb << "\n";
}

FuzzCase readRepro(std::istream& is) {
  FuzzCase c;
  c.trace.name = "repro";
  std::string line;
  bool sawHeader = false;
  bool sawPolicy = false;
  std::size_t lineNo = 0;
  const auto bad = [&](const char* why) {
    return InputError("repro line " + std::to_string(lineNo) + ": " + why);
  };
  while (std::getline(is, line)) {
    ++lineNo;
    if (line.empty() || line[0] == '#') continue;
    util::FieldCursor fields(line);
    const std::string_view key = fields.word();
    if (!sawHeader) {
      if (key != "sps-repro" || fields.integer<int>() != 1)
        throw bad("expected header 'sps-repro 1'");
      sawHeader = true;
      continue;
    }
    if (key == "policy") {
      const std::string_view token = fields.word();
      if (token.empty()) throw bad("policy token missing");
      c.policyToken = token;
      sawPolicy = true;
    } else if (key == "overhead") {
      const auto flag = fields.integer<int>();
      if (!flag || (*flag != 0 && *flag != 1))
        throw bad("overhead must be 0 or 1");
      c.overhead = *flag == 1;
    } else if (key == "machine") {
      const auto procs = fields.integer<std::uint32_t>();
      if (!procs || *procs == 0) throw bad("bad machine size");
      c.trace.machineProcs = *procs;
    } else if (key == "job") {
      const auto submit = fields.integer<Time>();
      const auto runtime = fields.integer<Time>();
      const auto estimate = fields.integer<Time>();
      const auto procs = fields.integer<std::uint32_t>();
      const auto memoryMb = fields.integer<std::uint32_t>();
      if (!submit || !runtime || !estimate || !procs || !memoryMb ||
          !fields.atEnd())
        throw bad("bad job record");
      workload::Job j;
      j.submit = *submit;
      j.runtime = *runtime;
      j.estimate = *estimate;
      j.procs = *procs;
      j.memoryMb = *memoryMb;
      c.trace.jobs.push_back(j);
    } else {
      throw InputError("repro line " + std::to_string(lineNo) +
                       ": unknown directive '" + std::string(key) + "'");
    }
  }
  if (!sawHeader) throw InputError("repro: missing 'sps-repro 1' header");
  if (!sawPolicy) throw InputError("repro: missing policy line");
  if (c.trace.jobs.empty()) throw InputError("repro: no jobs");
  (void)sched::specFromToken(c.policyToken);  // validate the token eagerly
  workload::normalizeTrace(c.trace);
  workload::validateTrace(c.trace);
  return c;
}

}  // namespace sps::check
