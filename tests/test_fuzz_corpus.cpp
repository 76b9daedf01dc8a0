// Corpus replay (`ctest -L fuzz`): every .repro under tests/corpus/ runs
// through the differential harness — both kernel modes, invariant oracle at
// stride 1 — and must come back clean. The fence-alloc-* files are shrunk
// fuzzer finds (regression tests for fixed bugs); the stress-* files are
// adversarial workloads dumped with `sps_fuzz --dump` to keep every policy
// family exercised here even when the fuzzer has nothing new to say.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/diff_harness.hpp"
#include "util/check.hpp"

namespace sps {
namespace {

namespace fs = std::filesystem;

std::vector<fs::path> corpusFiles() {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(SPS_CORPUS_DIR))
    if (entry.path().extension() == ".repro") files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  return files;
}

TEST(FuzzCorpus, DirectoryIsNotEmpty) {
  EXPECT_GE(corpusFiles().size(), 4u) << "corpus dir: " << SPS_CORPUS_DIR;
}

TEST(FuzzCorpus, EveryReproDiffsClean) {
  const check::DiffHarness harness;  // CheckConfig::all(1)
  for (const fs::path& path : corpusFiles()) {
    SCOPED_TRACE(path.filename().string());
    std::ifstream is(path);
    ASSERT_TRUE(is) << "cannot open " << path;
    check::FuzzCase c;
    ASSERT_NO_THROW(c = check::readRepro(is));
    const check::DiffOutcome outcome = harness.diff(c);
    EXPECT_TRUE(outcome.violation.empty()) << outcome.violation;
    EXPECT_TRUE(outcome.divergence.empty()) << outcome.divergence;
  }
}

// The repro format round-trips: write(read(f)) parses back to the same case.
TEST(FuzzCorpus, ReproFormatRoundTrips) {
  for (const fs::path& path : corpusFiles()) {
    SCOPED_TRACE(path.filename().string());
    std::ifstream is(path);
    ASSERT_TRUE(is);
    check::FuzzCase first;
    ASSERT_NO_THROW(first = check::readRepro(is));

    std::stringstream ss;
    check::writeRepro(ss, first);
    check::FuzzCase second = check::readRepro(ss);

    EXPECT_EQ(first.policyToken, second.policyToken);
    EXPECT_EQ(first.overhead, second.overhead);
    EXPECT_EQ(first.trace.machineProcs, second.trace.machineProcs);
    ASSERT_EQ(first.trace.jobs.size(), second.trace.jobs.size());
    for (std::size_t i = 0; i < first.trace.jobs.size(); ++i) {
      EXPECT_EQ(first.trace.jobs[i].submit, second.trace.jobs[i].submit);
      EXPECT_EQ(first.trace.jobs[i].runtime, second.trace.jobs[i].runtime);
      EXPECT_EQ(first.trace.jobs[i].estimate, second.trace.jobs[i].estimate);
      EXPECT_EQ(first.trace.jobs[i].procs, second.trace.jobs[i].procs);
    }
  }
}

// Job records whose unsigned fields `istream >>` would wrap (procs
// -4294967295 reads as 1, memoryMb -1 as 2^32-1) or half-parse are refused
// with the usual message rather than replayed. So are the shards / router /
// delay directives of the retired multi-cluster lane: a repro carrying them
// must fail loudly, not replay as a single-cluster case.
TEST(FuzzCorpus, ReproRejectsWrappedOrJunkJobFields) {
  const std::string head =
      "sps-repro 1\npolicy ss:2\noverhead 0\nmachine 4\n";
  for (const char* job :
       {"job 0 10 10 1 -1", "job 5 10 10 -4294967295 0", "job 0 10 10 +1 0",
        "job 0 10 10 1 0junk", "job 0 10 10 1 4294967296",
        "job 0 10 10 1 0 7", "job 0 10 10 1"}) {
    SCOPED_TRACE(job);
    std::istringstream is(head + "job 0 10 10 1 0\n" + job + "\n");
    try {
      (void)check::readRepro(is);
      ADD_FAILURE() << "accepted";
    } catch (const InputError& e) {
      EXPECT_STREQ(e.what(), "repro line 6: bad job record");
    }
  }
  for (const std::string key : {"shards", "router", "delay"}) {
    SCOPED_TRACE(key);
    std::istringstream is(head + key + (key == "router" ? " hash" : " 2") +
                          "\njob 0 10 10 1 0\n");
    try {
      (void)check::readRepro(is);
      ADD_FAILURE() << "accepted";
    } catch (const InputError& e) {
      EXPECT_EQ(std::string(e.what()),
                "repro line 5: unknown directive '" + key + "'");
    }
  }
  std::istringstream wrappedMachine(
      "sps-repro 1\npolicy ss:2\nmachine -4294967295\njob 0 10 10 1 0\n");
  EXPECT_THROW((void)check::readRepro(wrappedMachine), InputError);
  std::istringstream wellFormed(head + "job\t+0 10 +10 1 0\r\n");
  EXPECT_EQ(check::readRepro(wellFormed).trace.jobs.size(), 1u);
}

}  // namespace
}  // namespace sps
