// Unit tests: SWF parsing and writing.
#include <gtest/gtest.h>

#include <sstream>

#include "util/check.hpp"
#include "workload/swf.hpp"

namespace sps::workload {
namespace {

const char* kSample =
    "; Comment line\n"
    ";MaxProcs: 128\n"
    "\n"
    "1 100 5 300 4 -1 2048 4 600 -1 1 1 1 -1 1 -1 -1 -1\n"
    "2 150 0 50 1 -1 -1 1 100 -1 1 2 1 -1 1 -1 -1 -1\n";

TEST(Swf, ParsesBasicFields) {
  std::istringstream in(kSample);
  SwfReadStats stats;
  const Trace t = readSwf(in, "sample", 128, &stats);
  ASSERT_EQ(t.jobs.size(), 2u);
  EXPECT_EQ(stats.jobsAccepted, 2u);
  EXPECT_EQ(t.machineProcs, 128u);
  // normalizeTrace shifts submits so the first is 0.
  EXPECT_EQ(t.jobs[0].submit, 0);
  EXPECT_EQ(t.jobs[0].runtime, 300);
  EXPECT_EQ(t.jobs[0].procs, 4u);
  EXPECT_EQ(t.jobs[0].estimate, 600);
  EXPECT_EQ(t.jobs[0].memoryMb, 2u);  // 2048 KB -> 2 MB
  EXPECT_EQ(t.jobs[1].submit, 50);
  EXPECT_EQ(t.jobs[1].procs, 1u);
}

TEST(Swf, SkipsCommentsAndBlanks) {
  std::istringstream in("; only comments\n\n;\n");
  SwfReadStats stats;
  const Trace t = readSwf(in, "empty", 64, &stats);
  EXPECT_TRUE(t.jobs.empty());
  EXPECT_EQ(stats.linesRead, 0u);
}

TEST(Swf, DropsNonPositiveRuntime) {
  std::istringstream in(
      "1 0 -1 0 4 -1 -1 4 600 -1 0 1 1 -1 1 -1 -1 -1\n"
      "2 10 -1 -1 4 -1 -1 4 600 -1 5 1 1 -1 1 -1 -1 -1\n"
      "3 20 -1 30 4 -1 -1 4 600 -1 1 1 1 -1 1 -1 -1 -1\n");
  SwfReadStats stats;
  const Trace t = readSwf(in, "drops", 64, &stats);
  EXPECT_EQ(t.jobs.size(), 1u);
  EXPECT_EQ(stats.droppedNonPositiveRuntime, 2u);
}

TEST(Swf, DropsNonPositiveProcs) {
  std::istringstream in("1 0 -1 100 -1 -1 -1 -1 600 -1 1 1 1 -1 1 -1 -1 -1\n");
  SwfReadStats stats;
  const Trace t = readSwf(in, "drops", 64, &stats);
  EXPECT_TRUE(t.jobs.empty());
  EXPECT_EQ(stats.droppedNonPositiveProcs, 1u);
}

TEST(Swf, DropsJobsWiderThanMachine) {
  std::istringstream in("1 0 -1 100 80 -1 -1 80 600 -1 1 1 1 -1 1 -1 -1 -1\n");
  SwfReadStats stats;
  const Trace t = readSwf(in, "wide", 64, &stats);
  EXPECT_TRUE(t.jobs.empty());
  EXPECT_EQ(stats.droppedTooWide, 1u);
}

TEST(Swf, FallsBackToRequestedProcs) {
  std::istringstream in("1 0 -1 100 -1 -1 -1 16 600 -1 1 1 1 -1 1 -1 -1 -1\n");
  const Trace t = readSwf(in, "fallback", 64, nullptr);
  ASSERT_EQ(t.jobs.size(), 1u);
  EXPECT_EQ(t.jobs[0].procs, 16u);
}

TEST(Swf, ClampsEstimateUpToRuntime) {
  // Requested time 50 < runtime 100: clamp (kill-at-limit consistency).
  std::istringstream in("1 0 -1 100 4 -1 -1 4 50 -1 1 1 1 -1 1 -1 -1 -1\n");
  SwfReadStats stats;
  const Trace t = readSwf(in, "clamp", 64, &stats);
  ASSERT_EQ(t.jobs.size(), 1u);
  EXPECT_EQ(t.jobs[0].estimate, 100);
  EXPECT_EQ(stats.estimatesClamped, 1u);
}

TEST(Swf, MissingEstimateDefaultsToRuntime) {
  std::istringstream in("1 0 -1 100 4 -1 -1 4 -1 -1 1 1 1 -1 1 -1 -1 -1\n");
  const Trace t = readSwf(in, "noest", 64, nullptr);
  ASSERT_EQ(t.jobs.size(), 1u);
  EXPECT_EQ(t.jobs[0].estimate, 100);
}

TEST(Swf, ShortLineThrows) {
  std::istringstream in("1 2 3\n");
  EXPECT_THROW(readSwf(in, "bad", 64, nullptr), InputError);
}

// A token that is not a finite number, or a field too large for the Job
// field it feeds, rejects the line with its number and the field; the
// records around it are well formed.
TEST(Swf, RejectsHostileFields) {
  const struct {
    const char* line;
    const char* error;
  } kHostile[] = {
      {"2 10 -1 100 4294967300 -1 -1 4 200 -1 1 1 1 -1 1 -1 -1 -1",
       "SWF line 2: field 5 (allocated processors) out of range"},
      {"2 10 -1 100 4 junk -1 4 200 -1 1 1 1 -1 1 -1 -1 -1",
       "SWF line 2: field 6 is not a finite number"},
      {"2 10 -1 100 4 -1 -1 4 1e300 -1 1 1 1 -1 1 -1 -1 -1",
       "SWF line 2: field 9 (requested time) out of range"},
      {"2 10 -1 100 4 -1 1e20 4 200 -1 1 1 1 -1 1 -1 -1 -1",
       "SWF line 2: field 7 (used memory) out of range"},
      {"2 1e30 -1 100 4 -1 -1 4 200 -1 1 1 1 -1 1 -1 -1 -1",
       "SWF line 2: field 2 (submit time) out of range"},
      {"2 10 -1 1e400 4 -1 -1 4 200 -1 1 1 1 -1 1 -1 -1 -1",
       "SWF line 2: field 4 is not a finite number"},
      {"2 10 -1 100 -1 -1 -1 1e10 200 -1 1 1 1 -1 1 -1 -1 -1",
       "SWF line 2: field 8 (requested processors) out of range"},
      {"2 10 -1 100 4 -1 -1 4 200 -1 1 1 1 -1 1 -1 -1 nan",
       "SWF line 2: field 18 is not a finite number"},
      {"2 10 -1 100 4junk -1", "SWF line 2: field 5 is not a finite number"},
  };
  for (const auto& hostile : kHostile) {
    SCOPED_TRACE(hostile.line);
    std::istringstream in(
        std::string("1 0 -1 100 4 -1 -1 4 200 -1 1 1 1 -1 1 -1 -1 -1\n") +
        hostile.line + "\n3 20 -1 100 4 -1 -1 4 200 -1 1 1 1 -1 1 -1 -1 -1\n");
    try {
      (void)readSwf(in, "hostile", 8, nullptr);
      ADD_FAILURE() << "accepted";
    } catch (const InputError& e) {
      EXPECT_STREQ(e.what(), hostile.error);
    }
  }
}

// Every spelling `>>` reads as a finite double still parses to the same
// value: signs, fractions, exponents, leading zeros, an underflow to zero.
TEST(Swf, AcceptsEveryFiniteNumberSpelling) {
  std::istringstream in(
      "+1 +1.0e1 -1 1E2 004.0 -1 2048.4 4 +2.0e+2 -1 1 1 1 -1 1 -1 -1 1e-400\n"
      "2 .5e2 -1 99.5 4. -0 -1 4 -1 -1 1 1 1 -1 1 -1 -1 -1\n");
  const Trace t = readSwf(in, "spellings", 8, nullptr);
  ASSERT_EQ(t.jobs.size(), 2u);
  EXPECT_EQ(t.jobs[0].submit, 0);
  EXPECT_EQ(t.jobs[0].runtime, 100);
  EXPECT_EQ(t.jobs[0].procs, 4u);
  EXPECT_EQ(t.jobs[0].memoryMb, 3u);  // ceil(2048.4 / 1024)
  EXPECT_EQ(t.jobs[0].estimate, 200);
  EXPECT_EQ(t.jobs[1].submit, 40);
  EXPECT_EQ(t.jobs[1].runtime, 100);  // 99.5 rounds half away from zero
  EXPECT_EQ(t.jobs[1].procs, 4u);
  EXPECT_EQ(t.jobs[1].estimate, 100);
}

TEST(Swf, MissingFileThrows) {
  EXPECT_THROW(readSwfFile("/nonexistent/file.swf", "x", 64, nullptr),
               InputError);
}

TEST(Swf, WriteReadRoundTrip) {
  Trace t;
  t.name = "round";
  t.machineProcs = 64;
  for (int i = 0; i < 5; ++i) {
    Job j;
    j.id = static_cast<JobId>(i);
    j.submit = i * 100;
    j.runtime = 50 + i;
    j.estimate = 100 + i;
    j.procs = static_cast<std::uint32_t>(1 + i);
    j.memoryMb = 256;
    t.jobs.push_back(j);
  }
  std::ostringstream out;
  writeSwf(out, t);
  std::istringstream in(out.str());
  const Trace back = readSwf(in, "round", 64, nullptr);
  ASSERT_EQ(back.jobs.size(), t.jobs.size());
  for (std::size_t i = 0; i < t.jobs.size(); ++i) {
    EXPECT_EQ(back.jobs[i].submit, t.jobs[i].submit);
    EXPECT_EQ(back.jobs[i].runtime, t.jobs[i].runtime);
    EXPECT_EQ(back.jobs[i].estimate, t.jobs[i].estimate);
    EXPECT_EQ(back.jobs[i].procs, t.jobs[i].procs);
    EXPECT_EQ(back.jobs[i].memoryMb, t.jobs[i].memoryMb);
  }
}

TEST(Swf, ResultIsValidatedTrace) {
  // Out-of-order submits in the file must come back normalized.
  std::istringstream in(
      "1 500 -1 100 4 -1 -1 4 100 -1 1 1 1 -1 1 -1 -1 -1\n"
      "2 100 -1 100 4 -1 -1 4 100 -1 1 1 1 -1 1 -1 -1 -1\n");
  const Trace t = readSwf(in, "order", 64, nullptr);
  EXPECT_NO_THROW(validateTrace(t));
  EXPECT_EQ(t.jobs[0].submit, 0);
  EXPECT_EQ(t.jobs[1].submit, 400);
}

}  // namespace
}  // namespace sps::workload
