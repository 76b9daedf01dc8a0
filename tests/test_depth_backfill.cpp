// Unit tests: reservation-depth backfilling (extension) — the spectrum
// between EASY (depth 1) and conservative (depth infinity).
#include <gtest/gtest.h>

#include "core/simulation.hpp"
#include "helpers.hpp"
#include "sched/depth_backfill.hpp"
#include "sched/easy.hpp"
#include "sim/simulator.hpp"
#include "workload/synthetic.hpp"

namespace sps::sched {
namespace {

using test::J;
using test::makeTrace;

TEST(DepthBF, ConfigRejectsZeroDepth) {
  DepthConfig cfg;
  cfg.depth = 0;
  EXPECT_THROW(DepthBackfill{cfg}, InvariantError);
}

TEST(DepthBF, NameCarriesDepth) {
  EXPECT_EQ(DepthBackfill(DepthConfig{3}).name(), "Depth-BF(3)");
  EXPECT_EQ(DepthBackfill(DepthConfig{kUnlimitedDepth}).name(),
            "Conservative");
}

TEST(DepthBF, BackfillsIntoHoleLikeEasy) {
  // The canonical backfill scenario: short narrow job slides past a wide
  // reserved head.
  DepthBackfill policy(DepthConfig{1});
  const auto trace = makeTrace(4, {{0, 100, 3}, {1, 100, 4}, {2, 50, 1}});
  sim::Simulator s(trace, policy);
  s.run();
  EXPECT_EQ(s.exec(2).firstStart, 2);
  EXPECT_EQ(s.exec(1).firstStart, 100);
}

TEST(DepthBF, DepthOneLeavesSecondJobUnprotected) {
  // Same scenario as EASY's "SecondQueuedJobHasNoReservation": with depth 1
  // the backfill may delay the second queued job.
  DepthBackfill policy(DepthConfig{1});
  const auto trace =
      makeTrace(4, {{0, 100, 2}, {1, 100, 4}, {2, 100, 3}, {3, 97, 2}});
  sim::Simulator s(trace, policy);
  s.run();
  EXPECT_EQ(s.exec(3).firstStart, 3);    // backfilled
  EXPECT_EQ(s.exec(1).firstStart, 100);  // head protected
  EXPECT_GE(s.exec(2).firstStart, 200);  // second job delayed
}

TEST(DepthBF, DepthTwoProtectsSecondJob) {
  // With depth 2 the would-be backfill delays a reserved job and must wait.
  DepthBackfill policy(DepthConfig{2});
  const auto trace =
      makeTrace(4, {{0, 100, 2}, {1, 100, 4}, {2, 100, 3}, {3, 97, 2}});
  sim::Simulator s(trace, policy);
  s.run();
  EXPECT_EQ(s.exec(1).firstStart, 100);
  // Job 2 reserved right after job 1; job 3's backfill (ending at 100)
  // would occupy 2 of the 4 procs job 1 needs... it actually fits before
  // job 1's anchor; the reservation structure decides. Either way job 2's
  // guarantee (200) must hold:
  EXPECT_LE(s.exec(2).firstStart, 200);
}

// Conservative backfilling (unlimited depth) re-anchors in (guarantee,
// submission) order, so equal guarantees break ties FCFS. Machine 10:
// X (2 procs), P (4) and Y (4) start at 0; X and Y estimate 1000 s but end
// at 10 and 30. C (id 3) is anchored at P's end (100); A (id 4, 3 procs)
// is blocked there by C and anchored at 190; B (id 5, 2 procs) fits
// beside C at 100. X's early end lets C start at once, after which B and
// A both re-anchor to 100. Y's early end at 30 opens a 4-proc hole that
// holds A or B but not both: A, submitted first, takes it; B keeps its
// guarantee of 100. Ordering equal guarantees by re-anchor order instead
// hands the hole to B (it re-anchored first, from its earlier old
// guarantee).
TEST(DepthBF, EqualGuaranteesReanchorInSubmissionOrder) {
  const auto trace = makeTrace(10, {{0, 10, 2, 1000},
                                    {0, 100, 4},
                                    {0, 30, 4, 1000},
                                    {1, 90, 2},
                                    {2, 100, 3},
                                    {3, 50, 2}});
  const auto policy = core::makePolicy(specFromToken("conservative"));
  sim::Simulator s(trace, *policy);
  s.run();
  EXPECT_EQ(s.exec(3).firstStart, 10);   // C starts on X's early end
  EXPECT_EQ(s.exec(4).firstStart, 30);   // A takes Y's hole
  EXPECT_EQ(s.exec(5).firstStart, 100);  // B keeps its guarantee
}

TEST(DepthBF, DepthOneMatchesEasyOnAverage) {
  // Depth-1 and EASY share the guarantee structure; their backfill rules
  // are equivalent (see depth_backfill.hpp), so aggregate behaviour must
  // coincide closely on a real workload.
  const auto trace = workload::generateTrace(workload::sdscConfig(800, 43));
  core::PolicySpec d1;
  d1.kind = core::PolicyKind::DepthBackfill;
  d1.depth.depth = 1;
  core::PolicySpec easy;
  easy.kind = core::PolicyKind::Easy;
  const auto a = core::runSimulation(trace, d1);
  const auto b = core::runSimulation(trace, easy);
  EXPECT_NEAR(a.meanBoundedSlowdown(), b.meanBoundedSlowdown(),
              0.15 * b.meanBoundedSlowdown() + 0.5);
}

TEST(DepthBF, GuaranteesNeverRegress) {
  // Track every queued job's guarantee across the run via the accessor; the
  // internal CHECK enforces monotonicity, so completing the run is the
  // assertion. Exercise with early completions (estimates 4x runtimes).
  DepthBackfill policy(DepthConfig{4});
  std::vector<J> jobs;
  for (int i = 0; i < 40; ++i)
    jobs.push_back({i * 30, 200 + i * 10,
                    static_cast<std::uint32_t>(1 + (i % 8)),
                    (200 + i * 10) * 4});
  const auto trace = makeTrace(8, jobs);
  sim::Simulator s(trace, policy);
  s.run();
  for (JobId i = 0; i < jobs.size(); ++i)
    EXPECT_EQ(s.state(i), sim::JobState::Finished);
}

TEST(DepthBF, InterpolatesBetweenExtremes) {
  // Mean slowdown should vary monotonically-ish from EASY-like to
  // conservative-like; at minimum, all depths must complete and stay
  // within the envelope spanned by the two extremes (with slack).
  const auto trace = workload::generateTrace(workload::sdscConfig(800, 47));
  std::vector<double> slowdowns;
  for (std::size_t depth : {std::size_t{1}, std::size_t{4},
                            std::size_t{16}, kUnlimitedDepth}) {
    core::PolicySpec spec;
    spec.kind = core::PolicyKind::DepthBackfill;
    spec.depth.depth = depth;
    slowdowns.push_back(
        core::runSimulation(trace, spec).meanBoundedSlowdown());
  }
  const double lo =
      std::min(slowdowns.front(), slowdowns.back()) / 1.5 - 0.5;
  const double hi =
      std::max(slowdowns.front(), slowdowns.back()) * 1.5 + 0.5;
  for (double sd : slowdowns) {
    EXPECT_GT(sd, lo);
    EXPECT_LT(sd, hi);
  }
}

TEST(DepthBF, NoSuspensionsEver) {
  DepthBackfill policy(DepthConfig{2});
  const auto trace = makeTrace(8, {{0, 50, 2}, {5, 50, 8}, {9, 50, 1}});
  sim::Simulator s(trace, policy);
  s.run();
  EXPECT_EQ(s.totalSuspensions(), 0u);
}

TEST(DepthBF, FactoryIntegration) {
  core::PolicySpec spec;
  spec.kind = core::PolicyKind::DepthBackfill;
  spec.depth.depth = 7;
  EXPECT_EQ(core::makePolicy(spec)->name(), "Depth-BF(7)");
}

}  // namespace
}  // namespace sps::sched
