// Extension: the reservation-depth axis. Sweeps Depth-BF(K) from EASY-like
// (K=1) to conservative (K=inf) and sets the whole non-preemptive spectrum
// against SS — the question the paper's Section II poses implicitly: can
// any amount of reservation tuning buy what selective preemption buys?
#include "bench_common.hpp"

#include "sched/depth_backfill.hpp"
#include "util/table.hpp"

int main() {
  using namespace sps;
  bench::banner("Extension — reservation-depth spectrum vs SS",
                "the Section II backfilling design space ([10], [16])");
  const auto trace = bench::sdscTrace();

  Table t({"scheme", "avg slowdown", "VS-row avg slowdown",
           "worst slowdown (L+VL)", "avg turnaround (s)"});
  auto addRow = [&](const core::PolicySpec& spec) {
    const auto stats = core::runSimulation(trace, spec);
    const auto cat = metrics::categorize16(stats.jobs);
    double vsRow = 0;
    int cells = 0;
    for (std::size_t c = 0; c < 4; ++c)
      if (!cat[c].empty()) {
        vsRow += cat[c].avgSlowdown();
        ++cells;
      }
    double worstLong = 0;
    for (std::size_t c = 8; c < 16; ++c)
      worstLong = std::max(worstLong, cat[c].worstSlowdown());
    t.row()
        .cell(stats.policyName)
        .cell(stats.meanBoundedSlowdown(), 2)
        .cell(cells > 0 ? vsRow / cells : 0.0, 2)
        .cell(worstLong, 1)
        .cell(stats.meanTurnaround(), 0);
  };

  for (std::size_t depth : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                            std::size_t{16}, std::size_t{64},
                            sched::kUnlimitedDepth}) {
    core::PolicySpec spec;
    spec.kind = core::PolicyKind::DepthBackfill;
    spec.depth.depth = depth;
    addRow(spec);
  }
  core::PolicySpec easy;
  easy.kind = core::PolicyKind::Easy;
  easy.label = "EASY (reference)";
  addRow(easy);
  core::PolicySpec ss;
  ss.kind = core::PolicyKind::SelectiveSuspension;
  ss.label = "SS(SF=2)";
  addRow(ss);

  t.printAscii(std::cout);
  std::cout << "\nReading: no reservation depth approaches SS's short-job "
               "service — the axis trades average slowdown against "
               "predictability, while preemption sidesteps the trade.\n";
  return 0;
}
