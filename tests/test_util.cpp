// Unit tests: util (rng, stats, table, check, log).
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "util/check.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace sps {
namespace {

// --- check macros -----------------------------------------------------------

TEST(Check, PassingCheckDoesNotThrow) {
  EXPECT_NO_THROW(SPS_CHECK(1 + 1 == 2));
}

TEST(Check, FailingCheckThrowsInvariantError) {
  EXPECT_THROW(SPS_CHECK(false), InvariantError);
}

TEST(Check, MessageIncludesExpressionAndText) {
  try {
    SPS_CHECK_MSG(false, "custom context " << 42);
    FAIL() << "should have thrown";
  } catch (const InvariantError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("custom context 42"), std::string::npos);
    EXPECT_NE(what.find("false"), std::string::npos);
  }
}

// --- rng ---------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Rng rng(11);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(13);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniformInt(3, 7));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 3);
  EXPECT_EQ(*seen.rbegin(), 7);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(17);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniformInt(42, 42), 42);
}

TEST(Rng, UniformIntRejectsBadRange) {
  Rng rng(1);
  EXPECT_THROW(rng.uniformInt(5, 4), InvariantError);
}

TEST(Rng, LogUniformInRange) {
  Rng rng(19);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.logUniform(10.0, 1000.0);
    EXPECT_GE(v, 10.0);
    EXPECT_LT(v, 1000.0);
  }
}

TEST(Rng, LogUniformMedianIsGeometricMean) {
  Rng rng(23);
  Samples s;
  for (int i = 0; i < 20000; ++i) s.add(rng.logUniform(10.0, 1000.0));
  EXPECT_NEAR(s.median(), 100.0, 8.0);  // geometric mean of 10 and 1000
}

TEST(Rng, LogUniformIntBounds) {
  Rng rng(29);
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.logUniformInt(2, 8);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 8);
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(31);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(50.0);
  EXPECT_NEAR(sum / n, 50.0, 1.0);
}

TEST(Rng, ExponentialNonNegative) {
  Rng rng(37);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(rng.exponential(1.0), 0.0);
}

TEST(Rng, NormalMoments) {
  Rng rng(41);
  Accumulator acc;
  for (int i = 0; i < 100000; ++i) acc.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(acc.mean(), 5.0, 0.05);
  EXPECT_NEAR(acc.stddev(), 2.0, 0.05);
}

TEST(Rng, BernoulliProbability) {
  Rng rng(43);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(47);
  const double w[3] = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 40000; ++i) ++counts[rng.weightedIndex(w, 3)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.2);
}

TEST(Rng, WeightedIndexRejectsZeroTotal) {
  Rng rng(53);
  const double w[2] = {0.0, 0.0};
  EXPECT_THROW(rng.weightedIndex(w, 2), InvariantError);
}

// A sampler built once must reproduce the one-shot call it stands for: the
// same values, and the same number of draws (the next raw output agrees).
TEST(Rng, SamplersMatchOneShotCalls) {
  const std::int64_t bands[][2] = {{1, 1},   {7, 7},    {1, 2},
                                   {2, 8},   {15, 60},  {60, 86400},
                                   {33, 430}};
  for (const auto& band : bands) {
    const std::int64_t lo = band[0];
    const std::int64_t hi = band[1];
    for (const double alpha : {1.0, 1.2, 2.2, 3.2}) {
      SCOPED_TRACE(testing::Message() << "[" << lo << ", " << hi
                                      << "] alpha " << alpha);
      Rng a(61);
      Rng b(61);
      const BoundedParetoIntSampler ints(lo, hi, alpha);
      for (int i = 0; i < 200; ++i)
        ASSERT_EQ(ints(a), b.boundedParetoInt(lo, hi, alpha));
      EXPECT_EQ(a.next(), b.next());

      const auto dlo = static_cast<double>(lo);
      const double dhi = static_cast<double>(hi) + 0.5;
      const BoundedParetoSampler reals(dlo, dhi, alpha);
      for (int i = 0; i < 200; ++i)
        ASSERT_EQ(reals(a), b.boundedPareto(dlo, dhi, alpha));
      EXPECT_EQ(a.next(), b.next());
    }
    Rng a(67);
    Rng b(67);
    const BoundedParetoIntSampler logUniform(lo, hi, 1.0);
    for (int i = 0; i < 200; ++i)
      ASSERT_EQ(logUniform(a), b.logUniformInt(lo, hi));
    EXPECT_EQ(a.next(), b.next());
  }

  const double weights[] = {0.0, 3.0, 0.0, 1e-300, 5.0, 0.0};
  const CategoricalSampler category(weights, 6);
  Rng a(71);
  Rng b(71);
  for (int i = 0; i < 2000; ++i)
    ASSERT_EQ(category(a), b.weightedIndex(weights, 6));
  EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, PointBandDrawsNothing) {
  // lo == hi returns lo without a draw, and never reads alpha, as the
  // one-shot call never did.
  Rng a(73);
  Rng fresh(73);
  const BoundedParetoIntSampler point(5, 5, 0.5);
  EXPECT_EQ(point(a), 5);
  EXPECT_EQ(a.boundedParetoInt(5, 5, 0.5), 5);
  EXPECT_EQ(a.next(), fresh.next());
}

TEST(Rng, SamplersCheckArgumentsAtConstruction) {
  EXPECT_THROW(BoundedParetoIntSampler(0, 5, 2.0), InvariantError);
  EXPECT_THROW(BoundedParetoIntSampler(5, 3, 2.0), InvariantError);
  EXPECT_THROW(BoundedParetoIntSampler(2, 8, 0.5), InvariantError);
  EXPECT_THROW(BoundedParetoSampler(10.0, 10.0, 2.0), InvariantError);
  const double negative[] = {1.0, -1.0};
  EXPECT_THROW(CategoricalSampler(negative, 2), InvariantError);
  EXPECT_THROW(CategoricalSampler(negative, 0), InvariantError);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(59);
  Rng b = a.fork();
  // The fork consumed one draw; the two streams should differ immediately.
  EXPECT_NE(a.next(), b.next());
}

// --- stats -------------------------------------------------------------------

TEST(Accumulator, BasicMoments) {
  Accumulator acc;
  for (double v : {1.0, 2.0, 3.0, 4.0}) acc.add(v);
  EXPECT_EQ(acc.count(), 4u);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 4.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 10.0);
  EXPECT_NEAR(acc.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Accumulator, EmptyThrowsOnMean) {
  Accumulator acc;
  EXPECT_TRUE(acc.empty());
  EXPECT_THROW((void)acc.mean(), InvariantError);
  EXPECT_THROW((void)acc.min(), InvariantError);
  EXPECT_THROW((void)acc.max(), InvariantError);
}

TEST(Accumulator, SingleSampleVarianceZero) {
  Accumulator acc;
  acc.add(7.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.stddev(), 0.0);
}

TEST(Accumulator, MergeMatchesCombinedStream) {
  Accumulator all, left, right;
  Rng rng(61);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-5, 5);
    all.add(v);
    (i % 2 == 0 ? left : right).add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(Accumulator, MergeWithEmptyIsIdentity) {
  Accumulator a, empty;
  a.add(1.0);
  a.add(2.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  Accumulator b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.5);
}

TEST(Samples, PercentilesExact) {
  Samples s;
  for (int i = 10; i >= 1; --i) s.add(i);  // 1..10 unsorted
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 10.0);
  EXPECT_DOUBLE_EQ(s.median(), 5.5);
}

TEST(Samples, SingleValue) {
  Samples s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
}

TEST(Samples, EmptyThrows) {
  Samples s;
  EXPECT_THROW((void)s.mean(), InvariantError);
  EXPECT_THROW((void)s.percentile(50), InvariantError);
}

TEST(Samples, PercentileRejectsOutOfRange) {
  Samples s;
  s.add(1.0);
  EXPECT_THROW((void)s.percentile(-1), InvariantError);
  EXPECT_THROW((void)s.percentile(101), InvariantError);
}

TEST(Samples, AddAfterQueryResorts) {
  Samples s;
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  s.add(9.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
}

TEST(Samples, ValuesKeepSubmissionOrderAcrossQueries) {
  // Regression: percentile/min/max used to sort the exposed vector in
  // place, so values() silently flipped from submission order to sorted
  // order after the first statistics query. The order is now pinned.
  Samples s;
  const std::vector<double> submitted = {5.0, 1.0, 9.0, 3.0, 7.0};
  for (const double v : submitted) s.add(v);
  EXPECT_EQ(s.values(), submitted);
  EXPECT_DOUBLE_EQ(s.percentile(50), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_EQ(s.values(), submitted) << "queries must not reorder values()";
  s.add(2.0);
  EXPECT_DOUBLE_EQ(s.median(), 4.0);
  std::vector<double> extended = submitted;
  extended.push_back(2.0);
  EXPECT_EQ(s.values(), extended);
}

// --- table -------------------------------------------------------------------

TEST(Table, AsciiAlignsColumns) {
  Table t({"name", "value"});
  t.row().cell("a").cell(1.5, 1);
  t.row().cell("longer").cell(std::int64_t{42});
  const std::string out = t.toAscii();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_NE(out.find("1.5"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, CsvEscapesSpecials) {
  Table t({"a", "b"});
  t.row().cell("x,y").cell("quote\"inside");
  const std::string csv = t.toCsv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"quote\"\"inside\""), std::string::npos);
}

TEST(Table, RejectsTooManyCells) {
  Table t({"only"});
  t.row().cell("one");
  EXPECT_THROW(t.cell("two"), InvariantError);
}

TEST(Table, RejectsCellBeforeRow) {
  Table t({"c"});
  EXPECT_THROW(t.cell("x"), InvariantError);
}

TEST(Table, RejectsEmptyHeader) {
  EXPECT_THROW(Table(std::vector<std::string>{}), InvariantError);
}

TEST(FormatFixed, Precision) {
  EXPECT_EQ(formatFixed(3.14159, 2), "3.14");
  EXPECT_EQ(formatFixed(2.0, 0), "2");
  EXPECT_EQ(formatFixed(-1.005, 1), "-1.0");
}

TEST(FormatDuration, Shapes) {
  EXPECT_EQ(formatDuration(4), "4s");
  EXPECT_EQ(formatDuration(65), "1m 05s");
  EXPECT_EQ(formatDuration(3600), "1h 00m 00s");
  EXPECT_EQ(formatDuration(3661), "1h 01m 01s");
}

// --- log ---------------------------------------------------------------------

TEST(Log, LevelGateWorks) {
  const LogLevel before = logLevel();
  setLogLevel(LogLevel::Error);
  EXPECT_EQ(logLevel(), LogLevel::Error);
  // Below threshold: must not emit (no crash, no observable side effect).
  SPS_LOG_DEBUG("this must be gated");
  setLogLevel(before);
}

TEST(Log, LevelNames) {
  EXPECT_STREQ(logLevelName(LogLevel::Info), "INFO");
  EXPECT_STREQ(logLevelName(LogLevel::Error), "ERROR");
}

}  // namespace
}  // namespace sps
