// Scale-out smoke: every policy token must complete on a 100k-processor
// machine under both kernel modes with the full sps::check oracle armed
// and silent (the 1M-job endurance version of this run lives in DESIGN.md's
// scale-out notes; this one keeps the job count small enough for the
// tier-1 suite). Also the memory-per-job bound: the peak resident bytes a
// run adds per job must follow the live jobs, not the trace length.
#include <gtest/gtest.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <string>

#include "check/check_config.hpp"
#include "core/experiment.hpp"
#include "core/simulation.hpp"
#include "helpers.hpp"
#include "sched/policy_factory.hpp"
#include "workload/synthetic.hpp"

namespace sps {
namespace {

const workload::Trace& scaleTrace() {
  static const workload::Trace trace = [] {
    auto cfg = workload::scaledToMachine(workload::sdscConfig(400, 11),
                                         100'000);
    cfg.offeredLoad = 0.95;
    return workload::generateTrace(cfg);
  }();
  return trace;
}

class ScalePolicy : public ::testing::TestWithParam<std::string> {};

TEST_P(ScalePolicy, HundredThousandProcsBothKernelModesChecked) {
  const workload::Trace& trace = scaleTrace();
  core::PolicySpec spec = sched::specFromToken(GetParam());
  if (GetParam().rfind("tss:", 0) == 0)
    spec.ss.tssLimits = core::bootstrapTssLimits(trace);
  core::SimulationOptions options;
  options.check = check::CheckConfig::all();
  for (const auto mode : {sched::kernel::KernelMode::Incremental,
                          sched::kernel::KernelMode::Rebuild}) {
    const metrics::RunStats stats = core::runSimulation(
        trace, sched::withKernelMode(spec, mode), options);
    EXPECT_EQ(stats.jobs.size(), trace.jobs.size());
    EXPECT_GT(stats.eventsProcessed, trace.jobs.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Tokens, ScalePolicy,
    ::testing::ValuesIn(sched::knownPolicyTokens()),
    [](const ::testing::TestParamInfo<std::string>& param) {
      std::string name = param.param;
      for (char& c : name)
        if (c == ':' || c == '-' || c == '.') c = '_';
      return name;
    });

// --- memory per job ----------------------------------------------------------

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

/// One "<field>: <n> kB" line of /proc/self/status, in bytes; -1 if absent.
double statusBytes(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(in, line))
    if (line.compare(0, len, field) == 0 && line.size() > len &&
        line[len] == ':')
      return 1024.0 * std::stod(line.substr(len + 1));
  return -1.0;
}

/// Peak resident bytes per job that one `token` run of `cfg`'s trace adds
/// over the resident set left after generating the trace; `streamed` feeds
/// the trace through test::runStreamed instead of the batch entry point.
/// Runs in a forked child: its high-water mark starts at its resident set,
/// so neither this process's earlier peak nor what it already holds counts.
double peakBytesPerJob(const workload::SyntheticConfig& cfg,
                       const std::string& token, bool streamed = false) {
  int fds[2];
  if (pipe(fds) != 0) return -1.0;
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    // Transparent huge pages would round the growth up to 2 MB pages.
    prctl(PR_SET_THP_DISABLE, 1, 0, 0, 0);
    double perJob = -1.0;
    {
      const workload::Trace trace = workload::generateTrace(cfg);
      const double base = statusBytes("VmRSS");
      const core::PolicySpec spec = sched::specFromToken(token);
      const metrics::RunStats stats =
          streamed ? test::runStreamed(trace, spec, {})
                   : core::runSimulation(trace, spec, {});
      const double peak = statusBytes("VmHWM");
      if (base > 0 && peak > 0 && stats.jobs.size() == trace.jobs.size())
        perJob = (peak - base) / static_cast<double>(trace.jobs.size());
    }
    const bool ok = write(fds[1], &perJob, sizeof perJob) == sizeof perJob;
    _exit(ok ? 0 : 1);
  }
  close(fds[1]);
  double perJob = -1.0;
  if (pid < 0 || read(fds[0], &perJob, sizeof perJob) != sizeof perJob)
    perJob = -1.0;
  close(fds[0]);
  int status = 0;
  if (pid > 0) waitpid(pid, &status, 0);
  return WIFEXITED(status) && WEXITSTATUS(status) == 0 ? perJob : -1.0;
}

/// Per-job state follows the live jobs, not the trace: a finished job keeps
/// no processor set, so even on a 100k-processor machine, where sets are
/// heap windows, a run adds at most 250 bytes per job at its peak. A
/// streamed run copies each job row into the simulator, a batch run borrows
/// the trace's; both stay under the bound.
TEST(MemoryPerJob, PeakGrowthAtMost250BytesPerJob) {
  if (kSanitized) GTEST_SKIP() << "sanitizer allocators inflate the peak";
  constexpr std::size_t kJobs = 65'536;
  const double easy = peakBytesPerJob(workload::sdscConfig(kJobs, 7), "easy");
  const double fcfsWide = peakBytesPerJob(
      workload::scaledToMachine(workload::sdscConfig(kJobs, 7), 100'000),
      "fcfs");
  const double easyStreamed =
      peakBytesPerJob(workload::sdscConfig(kJobs, 7), "easy", true);
  ASSERT_GT(easy, 0.0);
  ASSERT_GT(fcfsWide, 0.0);
  ASSERT_GT(easyStreamed, 0.0);
  EXPECT_LE(easy, 250.0) << "EASY, 128 processors";
  EXPECT_LE(fcfsWide, 250.0) << "FCFS, 100,000 processors";
  EXPECT_LE(easyStreamed, 250.0) << "EASY, 128 processors, streamed";
  RecordProperty("easy_bytes_per_job", std::to_string(easy));
  RecordProperty("fcfs_100k_bytes_per_job", std::to_string(fcfsWide));
  RecordProperty("easy_streamed_bytes_per_job", std::to_string(easyStreamed));
}

}  // namespace
}  // namespace sps
