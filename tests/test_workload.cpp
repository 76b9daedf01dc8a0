// Unit tests: workload::Job/Trace validation and transforms.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "util/check.hpp"
#include "workload/job.hpp"
#include "workload/transforms.hpp"

namespace sps::workload {
namespace {

using test::J;
using test::makeTrace;

TEST(Trace, ValidateAcceptsWellFormed) {
  const Trace t = makeTrace(16, {{0, 10, 2}, {5, 20, 4}});
  EXPECT_NO_THROW(validateTrace(t));
}

TEST(Trace, ValidateRejectsZeroMachine) {
  Trace t;
  t.machineProcs = 0;
  EXPECT_THROW(validateTrace(t), InputError);
}

TEST(Trace, ValidateRejectsUnsortedSubmits) {
  Trace t = makeTrace(16, {{0, 10, 2}, {5, 20, 4}});
  std::swap(t.jobs[0].submit, t.jobs[1].submit);
  EXPECT_THROW(validateTrace(t), InputError);
}

TEST(Trace, ValidateRejectsNonDenseIds) {
  Trace t = makeTrace(16, {{0, 10, 2}, {5, 20, 4}});
  t.jobs[1].id = 7;
  EXPECT_THROW(validateTrace(t), InputError);
}

TEST(Trace, ValidateRejectsZeroRuntime) {
  Trace t = makeTrace(16, {{0, 10, 2}});
  t.jobs[0].runtime = 0;
  EXPECT_THROW(validateTrace(t), InputError);
}

TEST(Trace, ValidateRejectsEstimateBelowRuntime) {
  Trace t = makeTrace(16, {{0, 10, 2}});
  t.jobs[0].estimate = 5;
  EXPECT_THROW(validateTrace(t), InputError);
}

TEST(Trace, ValidateRejectsZeroProcs) {
  Trace t = makeTrace(16, {{0, 10, 2}});
  t.jobs[0].procs = 0;
  EXPECT_THROW(validateTrace(t), InputError);
}

TEST(Trace, ValidateRejectsTooWideJob) {
  Trace t = makeTrace(16, {{0, 10, 2}});
  t.jobs[0].procs = 17;
  EXPECT_THROW(validateTrace(t), InputError);
}

// The messages are part of the contract (CLI and fuzz replay print them);
// the context prefix is built only on this path, so pin it byte for byte.
TEST(Trace, ValidateMessagesCarryJobContext) {
  const auto messageOf = [](const Trace& t) -> std::string {
    try {
      validateTrace(t);
    } catch (const InputError& e) {
      return e.what();
    }
    return "(accepted)";
  };
  const std::string prefix = "trace 'test' job index 1 (id ";
  Trace t = makeTrace(4, {{0, 10, 2}, {5, 20, 4}});
  t.jobs[1].id = 7;
  EXPECT_EQ(messageOf(t), prefix + "7): ids must be dense 0..n-1");
  t = makeTrace(4, {{0, 10, 2}, {5, 20, 4}});
  t.jobs[0].submit = 9;
  EXPECT_EQ(messageOf(t), prefix + "1): jobs must be sorted by submit time");
  t.jobs[0].submit = 0;
  t.jobs[1].runtime = 0;
  EXPECT_EQ(messageOf(t), prefix + "1): runtime must be positive");
  t.jobs[1].runtime = 30;
  EXPECT_EQ(messageOf(t), prefix + "1): estimate below runtime (jobs are "
                                   "killed at their wall-clock limit; clamp "
                                   "first)");
  t.jobs[1].estimate = 30;
  t.jobs[1].procs = 0;
  EXPECT_EQ(messageOf(t), prefix + "1): procs must be >= 1");
  t.jobs[1].procs = 5;
  EXPECT_EQ(messageOf(t), prefix + "1): procs exceed machine size");
  t.jobs[1].procs = 4;
  EXPECT_EQ(messageOf(t), "(accepted)");
  t.jobs[0].submit = -5;
  EXPECT_EQ(messageOf(t),
            "trace 'test' job index 0 (id 0): submit time must be >= 0");
}

TEST(Trace, TotalWorkSums) {
  const Trace t = makeTrace(16, {{0, 10, 2}, {5, 20, 4}});
  EXPECT_DOUBLE_EQ(totalWork(t), 10.0 * 2 + 20.0 * 4);
}

TEST(Trace, OfferedLoadDefinition) {
  // Span: first submit 0 to last end max(0+100, 50+100) = 150.
  const Trace t = makeTrace(10, {{0, 100, 5}, {50, 100, 5}});
  EXPECT_DOUBLE_EQ(offeredLoad(t), (100.0 * 5 + 100.0 * 5) / (10.0 * 150.0));
}

TEST(Trace, OfferedLoadEmptyIsZero) {
  Trace t;
  t.machineProcs = 4;
  EXPECT_DOUBLE_EQ(offeredLoad(t), 0.0);
}

TEST(Normalize, ShiftsAndRenumbers) {
  Trace t;
  t.machineProcs = 8;
  Job a;
  a.submit = 500;
  a.runtime = a.estimate = 10;
  a.procs = 1;
  Job b = a;
  b.submit = 300;
  t.jobs = {a, b};
  normalizeTrace(t);
  EXPECT_EQ(t.jobs[0].submit, 0);
  EXPECT_EQ(t.jobs[1].submit, 200);
  EXPECT_EQ(t.jobs[0].id, 0u);
  EXPECT_EQ(t.jobs[1].id, 1u);
}

TEST(Normalize, StableForEqualSubmits) {
  Trace t;
  t.machineProcs = 8;
  for (int i = 0; i < 5; ++i) {
    Job j;
    j.submit = 100;
    j.runtime = j.estimate = 10 + i;  // distinguishes original order
    j.procs = 1;
    t.jobs.push_back(j);
  }
  normalizeTrace(t);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(t.jobs[static_cast<std::size_t>(i)].runtime, 10 + i);
}

TEST(Normalize, SortedInputKeepsOrderRebasesAndRenumbers) {
  Trace t;
  t.machineProcs = 8;
  const Time submits[] = {100, 100, 250, 250, 250, 400};
  for (int i = 0; i < 6; ++i) {
    Job j;
    j.id = static_cast<JobId>(40 - i);
    j.submit = submits[i];
    j.runtime = j.estimate = 10 + i;  // distinguishes original order
    j.procs = 1;
    t.jobs.push_back(j);
  }
  normalizeTrace(t);
  const Time rebased[] = {0, 0, 150, 150, 150, 300};
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(t.jobs[i].submit, rebased[i]);
    EXPECT_EQ(t.jobs[i].runtime, 10 + static_cast<Time>(i));
    EXPECT_EQ(t.jobs[i].id, static_cast<JobId>(i));
  }
}

TEST(Normalize, UnsortedInputIsStableSorted) {
  Trace t;
  t.machineProcs = 8;
  const Time submits[] = {300, 100, 300, 100, 200};
  for (int i = 0; i < 5; ++i) {
    Job j;
    j.submit = submits[i];
    j.runtime = j.estimate = 10 + i;
    j.procs = 1;
    t.jobs.push_back(j);
  }
  normalizeTrace(t);
  const Time sortedSubmits[] = {0, 0, 100, 200, 200};
  const Time runtimes[] = {11, 13, 14, 10, 12};
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(t.jobs[i].submit, sortedSubmits[i]);
    EXPECT_EQ(t.jobs[i].runtime, runtimes[i]);
    EXPECT_EQ(t.jobs[i].id, static_cast<JobId>(i));
  }
}

TEST(ScaleLoad, DividesArrivals) {
  const Trace t = makeTrace(16, {{0, 10, 2}, {100, 10, 2}, {220, 10, 2}});
  const Trace s = scaleLoad(t, 2.0);
  EXPECT_EQ(s.jobs[1].submit, 50);
  EXPECT_EQ(s.jobs[2].submit, 110);
  // Runtimes untouched.
  EXPECT_EQ(s.jobs[0].runtime, 10);
  EXPECT_NE(s.name, t.name);
}

TEST(ScaleLoad, RaisesOfferedLoadProportionally) {
  const Trace t = makeTrace(16, {{0, 100, 8}, {1000, 100, 8},
                                 {2000, 100, 8}, {3000, 100, 8}});
  const double base = offeredLoad(t);
  const double doubled = offeredLoad(scaleLoad(t, 2.0));
  EXPECT_NEAR(doubled / base, 2.0, 0.15);  // end effects blunt it slightly
}

TEST(ScaleLoad, FactorOneIsIdentityOnSubmits) {
  const Trace t = makeTrace(16, {{0, 10, 2}, {77, 10, 2}});
  const Trace s = scaleLoad(t, 1.0);
  EXPECT_EQ(s.jobs[1].submit, 77);
}

TEST(ScaleLoad, RejectsNonPositiveFactor) {
  const Trace t = makeTrace(16, {{0, 10, 2}});
  EXPECT_THROW(scaleLoad(t, 0.0), InvariantError);
  EXPECT_THROW(scaleLoad(t, -1.0), InvariantError);
}

TEST(Truncate, KeepsPrefix) {
  const Trace t = makeTrace(16, {{0, 10, 2}, {5, 10, 2}, {9, 10, 2}});
  const Trace s = truncateTrace(t, 2);
  EXPECT_EQ(s.jobs.size(), 2u);
  EXPECT_EQ(s.jobs[1].submit, 5);
}

TEST(Truncate, LargerThanSizeIsNoop) {
  const Trace t = makeTrace(16, {{0, 10, 2}});
  EXPECT_EQ(truncateTrace(t, 99).jobs.size(), 1u);
}

TEST(Filter, KeepsMatchingAndRenumbers) {
  const Trace t = makeTrace(16, {{0, 10, 2}, {5, 10, 8}, {9, 10, 2}});
  const Trace s =
      filterTrace(t, [](const Job& j) { return j.procs == 2; });
  EXPECT_EQ(s.jobs.size(), 2u);
  EXPECT_EQ(s.jobs[0].id, 0u);
  EXPECT_EQ(s.jobs[1].id, 1u);
  EXPECT_EQ(s.jobs[1].submit, 9);
}

}  // namespace
}  // namespace sps::workload
