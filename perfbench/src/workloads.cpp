#include "workloads.hpp"

#include <sstream>

#include "sched/policy_factory.hpp"
#include "workload/synthetic.hpp"

namespace perfbench {

namespace {

// The mix tools/sps_service_load replays.
constexpr ServiceMix kServiceLoadMix{{211, 105}, {1009, 503}, {4096, 1000}};

// Batch workloads also replay their own stream through SchedulerService, so
// the service latency metrics exist on every workload. There are no
// cancels, so the streamed schedule must equal the batch one bit for bit.
// Reads are denser than in kServiceLoadMix: on 262k jobs, a query every 23rd
// and stats every 97th submission give about 14k reads, some 140 of them
// beyond the read p99.
constexpr ServiceMix kProbeMix{{23, 11}, {}, {97, 48}};
// The same for a trace of 16k jobs: a query every 4th submission gives
// about 4.3k reads, some 40 of them beyond the read p99.
constexpr ServiceMix kShortProbeMix{{4, 2}, {}, {97, 48}};

}  // namespace

const std::vector<Workload>& workloads() {
  // ss-deep is offered more than SS can serve. SS already saturates near
  // 78% utilization, so at load 0.95 its backlog grows by a small, seed-
  // dependent margin and per-run costs swing with it; at 1.3 the excess
  // load sets the growth, and the queue reaches thousands of jobs on every
  // seed.
  static const std::vector<Workload> all = {
      {"easy-long", "easy", 262144, 0.9, false, kProbeMix},
      {"ss-deep", "ss:2", 16384, 1.3, false, kShortProbeMix},
      {"service-mix", "easy", 262144, 0.0, true, kServiceLoadMix},
  };
  return all;
}

const Workload* findWorkload(std::string_view name) {
  for (const Workload& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

sps::workload::Trace makeTrace(const Workload& w, std::uint64_t seed,
                               std::size_t jobs) {
  sps::workload::SyntheticConfig cfg =
      sps::workload::sdscConfig(jobs != 0 ? jobs : w.jobs, seed);
  if (w.load > 0.0) cfg.offeredLoad = w.load;
  cfg.name = w.name;
  return sps::workload::generateTrace(cfg);
}

sps::core::PolicySpec makeSpec(const Workload& w) {
  return sps::sched::specFromToken(w.policy);
}

std::string renderScript(const sps::workload::Trace& trace,
                         const ServiceMix& mix) {
  std::ostringstream os;
  for (const sps::workload::Job& job : trace.jobs) {
    os << "submit " << job.submit << ' ' << job.procs << ' ' << job.runtime
       << ' ' << job.estimate << ' ' << job.memoryMb << '\n';
    const auto i = static_cast<std::size_t>(job.id);
    if (mix.query.hits(i)) os << "query " << i << '\n';
    // Alternate between the job just submitted (often still queued: the
    // success path) and an old one (long finished: the refusal path).
    if (mix.cancel.hits(i)) os << "cancel " << (i % 2 ? i : i / 2) << '\n';
    if (mix.stats.hits(i)) os << "stats\n";
  }
  os << "drain\n";
  return os.str();
}

}  // namespace perfbench
