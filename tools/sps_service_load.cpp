// sps_service_load — sustained-load harness for core::SchedulerService.
//
// Generates a paper-calibrated synthetic workload (the SDSC preset, scaled
// to the requested machine), renders it as protocol lines, and pumps them
// through SchedulerService::processLine one line at a time, verifying every
// reply. Deterministic sprinkles of `query`, `stats`, and `cancel` lines
// ride along to exercise the read verbs and the cancel edges under load;
// policy or lifecycle cancel refusals are counted, not fatal (a cancel that
// races job completion is expected traffic, not a bug). The run ends with
// an explicit `drain`, the final OpenMetrics exposition is validated with
// the strict checker, and ingest throughput is printed.
//
//   sps_service_load --jobs 50000                    # ctest service-smoke
//   sps_service_load --jobs 1000000 --stride 64      # the acceptance pump
//
// The protocol script is fully materialized before the clock starts, so the
// reported rates price the service (parse + bounded-lookahead advance +
// ingest), not the workload generator.
//
// Exit status: 0 on success, 1 on any reply or validation failure, 2 on
// usage errors.
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>

#include "check/check_config.hpp"
#include "core/cli_config.hpp"
#include "core/scheduler_service.hpp"
#include "metrics/openmetrics.hpp"
#include "metrics/report.hpp"
#include "sched/policy_factory.hpp"
#include "util/check.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace sps;

struct LoadOptions {
  std::size_t jobs = 50000;
  std::uint32_t procs = 0;     ///< 0 = the preset's machine (SDSC, 128)
  std::string policy = "easy";
  std::uint64_t seed = 42;
  std::uint32_t stride = 0;    ///< 0 = oracle off; N = CheckConfig::all(N)
  std::string metricsOut;
  bool quiet = false;
};

core::CliConfig makeCli(LoadOptions& opt) {
  core::CliConfig cli(
      "sps_service_load",
      "sustained-load harness for the scheduler service: pump a synthetic\n"
      "workload through the line protocol, verify every reply, validate the\n"
      "final OpenMetrics exposition, and report ingest throughput");
  cli.section("Load");
  cli.option("--jobs", &opt.jobs, "N",
             "synthetic submissions to pump (default: 50000)");
  cli.option("--procs", &opt.procs, "P",
             "machine size; scales the SDSC preset's width bands "
             "proportionally (default: the preset's 128)");
  cli.option("--policy", &opt.policy, "TOKEN",
             "policy token, e.g. easy, ss:2, tss-online:2 (default: easy; "
             "static tss needs offline calibration and cannot serve)");
  cli.option("--seed", &opt.seed, "S",
             "workload generator seed (default: 42)");
  cli.option("--stride", &opt.stride, "N",
             "arm the full invariant oracle at audit stride N; 0 = off "
             "(default: 0 — the throughput configuration)");
  cli.section("Output");
  cli.option("--metrics-out", &opt.metricsOut, "FILE",
             "write the final OpenMetrics exposition to FILE");
  cli.flag("--quiet", &opt.quiet, "only the final throughput line");
  return cli;
}

int fail(const std::string& message) {
  std::cerr << "sps_service_load: " << message << "\n";
  return 1;
}

bool startsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

/// Render the whole run as one protocol script. Submissions appear in trace
/// (submit-time) order; read verbs and cancels are interleaved on fixed
/// strides so every script for a given workload is identical run to run.
std::string buildScript(const workload::Trace& trace) {
  std::ostringstream os;
  os << "# sps_service_load script: " << trace.jobs.size() << " jobs on "
     << trace.machineProcs << " procs\n";
  for (const workload::Job& job : trace.jobs) {
    os << "submit " << job.submit << ' ' << job.procs << ' ' << job.runtime
       << ' ' << job.estimate << ' ' << job.memoryMb << '\n';
    const std::size_t i = static_cast<std::size_t>(job.id);
    if (i % 211 == 105) os << "query " << i << '\n';
    // Alternate between the job just submitted (often still queued -> the
    // success path) and an old id (long finished -> the refusal path).
    if (i % 1009 == 503) os << "cancel " << (i % 2 ? i : i / 2) << '\n';
    if (i % 4096 == 1000) os << "stats\n";
  }
  os << "drain\n";
  return os.str();
}

struct PumpTally {
  std::uint64_t submits = 0;
  std::uint64_t queries = 0;
  std::uint64_t statsCalls = 0;
  std::uint64_t cancelsOk = 0;
  std::uint64_t cancelsRefused = 0;
  bool drained = false;
};

/// Feed the script line by line and verify each reply shape. Returns false
/// (with a message on stderr) on the first protocol violation.
bool pump(core::SchedulerService& service, std::string_view script,
          PumpTally& tally) {
  std::size_t pos = 0;
  std::uint64_t lineNo = 0;
  while (pos < script.size()) {
    const std::size_t eol = script.find('\n', pos);
    const std::string_view line = script.substr(pos, eol - pos);
    pos = (eol == std::string_view::npos) ? script.size() : eol + 1;
    ++lineNo;
    const std::string reply = service.processLine(line);
    if (startsWith(line, "#")) {
      if (!reply.empty()) return fail("comment line drew a reply"), false;
    } else if (startsWith(line, "submit ")) {
      // Streamed ids are dense and sequential, so the expected reply is
      // exact, not just well-formed.
      if (reply != "ok " + std::to_string(tally.submits))
        return fail("line " + std::to_string(lineNo) + ": expected 'ok " +
                    std::to_string(tally.submits) + "', got '" + reply + "'"),
               false;
      ++tally.submits;
    } else if (startsWith(line, "query ")) {
      if (!startsWith(reply, "ok job "))
        return fail("query reply: '" + reply + "'"), false;
      ++tally.queries;
    } else if (startsWith(line, "stats")) {
      if (!startsWith(reply, "ok now "))
        return fail("stats reply: '" + reply + "'"), false;
      ++tally.statsCalls;
    } else if (startsWith(line, "cancel ")) {
      if (startsWith(reply, "ok cancelled "))
        ++tally.cancelsOk;
      else if (startsWith(reply, "err cancel: "))
        ++tally.cancelsRefused;  // completed / policy refusal: expected
      else
        return fail("cancel reply: '" + reply + "'"), false;
    } else if (startsWith(line, "drain")) {
      if (!startsWith(reply, "ok drained "))
        return fail("drain reply: '" + reply + "'"), false;
      tally.drained = true;
    } else {
      return fail("unexpected script line: '" + std::string(line) + "'"),
             false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  LoadOptions opt;
  core::CliConfig cli = makeCli(opt);
  try {
    if (cli.parse(argc, argv).helpRequested) {
      cli.printUsage(std::cout);
      return 0;
    }
  } catch (const sps::InputError& e) {
    std::cerr << "sps_service_load: " << e.what() << "\n";
    return 2;
  }
  if (opt.jobs == 0) {
    std::cerr << "sps_service_load: --jobs must be positive\n";
    return 2;
  }
  if (opt.policy == "tss") {
    std::cerr << "sps_service_load: tss calibrates offline and cannot "
                 "serve; use tss-online\n";
    return 2;
  }

  core::ServiceConfig cfg;
  try {
    cfg.spec = sched::specFromToken(opt.policy);
  } catch (const InputError& e) {
    std::cerr << "sps_service_load: " << e.what() << "\n";
    return 2;
  }

  workload::SyntheticConfig synth = workload::sdscConfig(opt.jobs, opt.seed);
  if (opt.procs != 0 && opt.procs != synth.machineProcs)
    synth = workload::scaledToMachine(synth, opt.procs);
  synth.name = "service-load";
  const workload::Trace trace = workload::generateTrace(synth);

  cfg.traceName = trace.name;
  cfg.machineProcs = trace.machineProcs;
  if (opt.stride != 0) cfg.options.check = check::CheckConfig::all(opt.stride);

  const std::string script = buildScript(trace);
  if (!opt.quiet)
    std::cout << "pumping " << trace.jobs.size() << " submissions ("
              << script.size() / (1024 * 1024) << " MiB of protocol) through "
              << opt.policy << " on " << trace.machineProcs << " procs"
              << (opt.stride ? ", oracle stride " + std::to_string(opt.stride)
                             : std::string())
              << "\n";

  core::SchedulerService service(std::move(cfg));
  PumpTally tally;
  const auto t0 = std::chrono::steady_clock::now();
  if (!pump(service, script, tally)) return 1;
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  if (!tally.drained) return fail("script ended without a drain reply");
  if (tally.submits != trace.jobs.size())
    return fail("submitted " + std::to_string(tally.submits) + " of " +
                std::to_string(trace.jobs.size()));
  const metrics::RunStats stats = service.finish();

  const std::string exposition = metrics::openMetrics(stats);
  std::string error;
  if (!metrics::validateOpenMetrics(exposition, &error))
    return fail("OpenMetrics validation: " + error);
  if (!opt.metricsOut.empty()) {
    std::ofstream os(opt.metricsOut);
    if (!os) return fail("cannot open --metrics-out file: " + opt.metricsOut);
    os << exposition;
    if (!os) return fail("failed writing " + opt.metricsOut);
  }

  if (!opt.quiet) {
    std::cout << "  " << metrics::summaryLine(stats) << "\n";
    std::cout << "  queries " << tally.queries << ", stats "
              << tally.statsCalls << ", cancels " << tally.cancelsOk
              << " ok / " << tally.cancelsRefused << " refused\n";
  }
  std::cout << "sps_service_load: " << tally.submits << " submissions in "
            << wall << " s ("
            << static_cast<std::uint64_t>(
                   static_cast<double>(tally.submits) / wall)
            << " submissions/s, "
            << static_cast<std::uint64_t>(
                   static_cast<double>(stats.eventsProcessed) / wall)
            << " events/s)\n";
  return 0;
}
