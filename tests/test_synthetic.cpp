// Unit tests: the synthetic workload generator and its paper calibration.
#include <gtest/gtest.h>

#include "metrics/category_stats.hpp"
#include "util/check.hpp"
#include "workload/synthetic.hpp"

namespace sps::workload {
namespace {

TEST(Synthetic, Deterministic) {
  const Trace a = generateTrace(ctcConfig(500, 7));
  const Trace b = generateTrace(ctcConfig(500, 7));
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].submit, b.jobs[i].submit);
    EXPECT_EQ(a.jobs[i].runtime, b.jobs[i].runtime);
    EXPECT_EQ(a.jobs[i].procs, b.jobs[i].procs);
    EXPECT_EQ(a.jobs[i].memoryMb, b.jobs[i].memoryMb);
  }
}

TEST(Synthetic, SeedChangesTrace) {
  const Trace a = generateTrace(ctcConfig(500, 7));
  const Trace b = generateTrace(ctcConfig(500, 8));
  bool anyDiff = false;
  for (std::size_t i = 0; i < a.jobs.size(); ++i)
    anyDiff |= a.jobs[i].runtime != b.jobs[i].runtime;
  EXPECT_TRUE(anyDiff);
}

TEST(Synthetic, ProducesRequestedCount) {
  EXPECT_EQ(generateTrace(ctcConfig(123, 1)).jobs.size(), 123u);
}

TEST(Synthetic, ResultValidates) {
  EXPECT_NO_THROW(validateTrace(generateTrace(sdscConfig(1000, 3))));
}

TEST(Synthetic, EstimatesAreAccurateByDefault) {
  const Trace t = generateTrace(kthConfig(300, 5));
  for (const Job& j : t.jobs) EXPECT_EQ(j.estimate, j.runtime);
}

TEST(Synthetic, MemoryWithinConfiguredRange) {
  SyntheticConfig cfg = ctcConfig(500, 9);
  cfg.memMinMb = 100;
  cfg.memMaxMb = 1024;
  const Trace t = generateTrace(cfg);
  for (const Job& j : t.jobs) {
    EXPECT_GE(j.memoryMb, 100u);
    EXPECT_LE(j.memoryMb, 1024u);
  }
}

TEST(Synthetic, RuntimesAndWidthsRespectCategoryBands) {
  const Trace t = generateTrace(sdscConfig(2000, 11));
  for (const Job& j : t.jobs) {
    EXPECT_GE(j.runtime, 1);
    EXPECT_LE(j.runtime, 24 * kHour);
    EXPECT_GE(j.procs, 1u);
    EXPECT_LE(j.procs, t.machineProcs);
  }
}

TEST(Synthetic, OfferedLoadHitsTarget) {
  SyntheticConfig cfg = ctcConfig(4000, 13);
  cfg.offeredLoad = 0.5;
  const Trace t = generateTrace(cfg);
  EXPECT_NEAR(offeredLoad(t), 0.5, 0.05);
}

TEST(Synthetic, CategoryMixMatchesTableII) {
  // With 20k jobs each cell should be within ~1.5 points of its target.
  const Trace t = generateTrace(ctcConfig(20000, 17));
  const auto dist = metrics::distribution16(t.jobs);
  const auto& mix = ctcConfig().categoryMix;
  double mixTotal = 0;
  for (double m : mix) mixTotal += m;
  for (std::size_t c = 0; c < kNumCategories16; ++c) {
    const double target = 100.0 * mix[c] / mixTotal;
    EXPECT_NEAR(dist[c], target, 1.5) << "category " << category16Name(c);
  }
}

TEST(Synthetic, ArrivalsAreSortedFromZero) {
  const Trace t = generateTrace(sdscConfig(1000, 19));
  EXPECT_EQ(t.jobs.front().submit, 0);
  for (std::size_t i = 1; i < t.jobs.size(); ++i)
    EXPECT_GE(t.jobs[i].submit, t.jobs[i - 1].submit);
}

TEST(Synthetic, PresetsMatchPaperMachines) {
  EXPECT_EQ(ctcConfig().machineProcs, 430u);   // CTC SP2
  EXPECT_EQ(sdscConfig().machineProcs, 128u);  // SDSC SP2
  EXPECT_EQ(kthConfig().machineProcs, 100u);   // KTH SP2
}

TEST(Synthetic, DistinctPresetSeedsGiveDistinctTraces) {
  const Trace c = generateTrace(ctcConfig(200, 42));
  const Trace s = generateTrace(sdscConfig(200, 42));
  bool anyDiff = false;
  for (std::size_t i = 0; i < 200; ++i)
    anyDiff |= c.jobs[i].runtime != s.jobs[i].runtime;
  EXPECT_TRUE(anyDiff);
}

TEST(Synthetic, RejectsBadConfigs) {
  SyntheticConfig cfg = ctcConfig(10, 1);
  cfg.machineProcs = 16;  // narrower than the VW boundary
  EXPECT_THROW(generateTrace(cfg), InvariantError);

  cfg = ctcConfig(10, 1);
  cfg.jobCount = 0;
  EXPECT_THROW(generateTrace(cfg), InvariantError);

  cfg = ctcConfig(10, 1);
  cfg.offeredLoad = 0.0;
  EXPECT_THROW(generateTrace(cfg), InvariantError);

  cfg = ctcConfig(10, 1);
  cfg.memMinMb = 0;
  EXPECT_THROW(generateTrace(cfg), InvariantError);

  cfg = ctcConfig(10, 1);
  cfg.maxRuntime = kLongMax;  // VL band empty
  EXPECT_THROW(generateTrace(cfg), InvariantError);

  // Every category's laws are built before the first draw, so a bad alpha
  // is refused even when only sequential jobs (no width draw) have weight.
  cfg = ctcConfig(10, 1);
  cfg.categoryMix.fill(0.0);
  cfg.categoryMix[0] = 1.0;
  cfg.widthAlpha = 0.5;
  EXPECT_THROW(generateTrace(cfg), InvariantError);

  cfg = ctcConfig(10, 1);
  cfg.runtimeAlpha = 0.9;
  EXPECT_THROW(generateTrace(cfg), InvariantError);
}

// Width-bias property: a larger widthAlpha must not increase mean width.
class WidthAlpha : public ::testing::TestWithParam<double> {};

TEST_P(WidthAlpha, WidthsStayInVwBand) {
  SyntheticConfig cfg = sdscConfig(2000, 23);
  cfg.widthAlpha = GetParam();
  // Force everything into the VS-VW cell to probe the band directly.
  cfg.categoryMix.fill(0.0);
  cfg.categoryMix[3] = 1.0;
  const Trace t = generateTrace(cfg);
  for (const Job& j : t.jobs) {
    EXPECT_GE(j.procs, kWideMax + 1);
    EXPECT_LE(j.procs, cfg.machineProcs);
    EXPECT_LE(j.runtime, kVeryShortMax);
  }
}

INSTANTIATE_TEST_SUITE_P(Alphas, WidthAlpha,
                         ::testing::Values(1.0, 1.5, 2.0, 3.0, 4.0));

TEST(Synthetic, ScaledToMachineKeepsBandShape) {
  const SyntheticConfig cfg =
      scaledToMachine(sdscConfig(2000, 31), 100'000);
  EXPECT_EQ(cfg.machineProcs, 100'000u);
  EXPECT_TRUE(cfg.scaleWidthBands);
  EXPECT_EQ(cfg.name, "SDSC-synth@100000");
  const Trace t = generateTrace(cfg);
  EXPECT_EQ(t.machineProcs, 100'000u);
  std::uint32_t maxWidth = 0;
  std::size_t beyondPaperVw = 0;
  for (const Job& j : t.jobs) {
    ASSERT_GE(j.procs, 1u);
    ASSERT_LE(j.procs, cfg.machineProcs);
    maxWidth = std::max(maxWidth, j.procs);
    if (j.procs > 100'000 / 4) ++beyondPaperVw;
  }
  // Scaled bands: the VW band starts at machineProcs/4, so genuinely wide
  // jobs exist, but the bottom-heavy in-band law keeps them a minority.
  EXPECT_GT(maxWidth, 25'000u);
  EXPECT_GT(beyondPaperVw, 0u);
  EXPECT_LT(beyondPaperVw, t.jobs.size() / 2);
}

TEST(Synthetic, ScaleFlagOffIsBitIdentical) {
  SyntheticConfig plain = sdscConfig(500, 7);
  SyntheticConfig flagged = plain;
  flagged.scaleWidthBands = true;  // no-op at 128 procs: bands never shrink
  const Trace a = generateTrace(plain);
  const Trace b = generateTrace(flagged);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].procs, b.jobs[i].procs);
    EXPECT_EQ(a.jobs[i].runtime, b.jobs[i].runtime);
    EXPECT_EQ(a.jobs[i].submit, b.jobs[i].submit);
  }
}

TEST(Synthetic, HigherWidthAlphaGivesNarrowerJobs) {
  double prevMean = 1e9;
  for (double alpha : {1.0, 2.0, 3.0}) {
    SyntheticConfig cfg = sdscConfig(4000, 29);
    cfg.widthAlpha = alpha;
    cfg.categoryMix.fill(0.0);
    cfg.categoryMix[3] = 1.0;  // VS-VW only
    const Trace t = generateTrace(cfg);
    double mean = 0;
    for (const Job& j : t.jobs) mean += j.procs;
    mean /= static_cast<double>(t.jobs.size());
    EXPECT_LT(mean, prevMean);
    prevMean = mean;
  }
}

// FNV-1a over every generated field, eight little-endian bytes per field.
std::uint64_t traceDigest(const Trace& t) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int k = 0; k < 8; ++k) {
      h ^= (v >> (8 * k)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  for (const Job& j : t.jobs) {
    mix(static_cast<std::uint64_t>(j.submit));
    mix(static_cast<std::uint64_t>(j.runtime));
    mix(static_cast<std::uint64_t>(j.estimate));
    mix(j.procs);
    mix(j.memoryMb);
  }
  return h;
}

// Pins the generated traces bit for bit: every experiment in the repository
// starts from these streams, so a faster sampler must reproduce them
// exactly. The digests were recorded before the per-category samplers.
TEST(Synthetic, GoldenDigests) {
  SyntheticConfig diurnal = ctcConfig(2000, 42);
  diurnal.diurnalAmplitude = 0.4;
  SyntheticConfig heavyTail = sdscConfig(2000, 42);
  heavyTail.runtimeAlpha = 1.5;
  SyntheticConfig sparse = sdscConfig(2000, 7);
  sparse.categoryMix = {0, 5, 0, 3, 0, 0, 0, 0, 2, 0, 4, 0, 0, 0, 1, 0};
  const struct {
    const char* name;
    SyntheticConfig cfg;
    std::uint64_t digest;
  } cases[] = {
      {"ctc-1", ctcConfig(2000, 1), 0xe029b1577c660b73ULL},
      {"ctc-42", ctcConfig(2000, 42), 0x0ce36a376c9e82dfULL},
      {"sdsc-1", sdscConfig(2000, 1), 0xd4195c3cc78843e6ULL},
      {"sdsc-42", sdscConfig(2000, 42), 0xa80241cdad032ec8ULL},
      {"kth-1", kthConfig(2000, 1), 0xa59582a33b5831b9ULL},
      {"kth-42", kthConfig(2000, 42), 0x614a83c55aa201c2ULL},
      {"sdsc@100000", scaledToMachine(sdscConfig(2000, 42), 100'000),
       0x7910dfaa2ea4d42bULL},
      {"ctc-diurnal", diurnal, 0xc7fca9a4138051a1ULL},
      {"sdsc-runtimeAlpha", heavyTail, 0x1e048903ba4c03b5ULL},
      {"sdsc-zero-weights", sparse, 0x1fa6d27577094bbcULL},
  };
  for (const auto& c : cases) {
    const Trace t = generateTrace(c.cfg);
    ASSERT_EQ(t.jobs.size(), 2000u) << c.name;
    EXPECT_EQ(traceDigest(t), c.digest)
        << c.name << ": 0x" << std::hex << traceDigest(t);
  }
}

}  // namespace
}  // namespace sps::workload
