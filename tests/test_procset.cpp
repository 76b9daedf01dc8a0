// Unit tests: sim::ProcSet.
#include <gtest/gtest.h>

#include <vector>

#include "sim/procset.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace sps::sim {
namespace {

TEST(ProcSet, DefaultIsEmpty) {
  ProcSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
}

TEST(ProcSet, InsertEraseContains) {
  ProcSet s;
  s.insert(0);
  s.insert(63);
  s.insert(64);
  s.insert(1023);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_TRUE(s.contains(0));
  EXPECT_TRUE(s.contains(63));
  EXPECT_TRUE(s.contains(64));
  EXPECT_TRUE(s.contains(1023));
  EXPECT_FALSE(s.contains(1));
  s.erase(63);
  EXPECT_FALSE(s.contains(63));
  EXPECT_EQ(s.count(), 3u);
}

TEST(ProcSet, FirstNShapes) {
  EXPECT_EQ(ProcSet::firstN(0).count(), 0u);
  EXPECT_EQ(ProcSet::firstN(1).count(), 1u);
  EXPECT_EQ(ProcSet::firstN(64).count(), 64u);
  EXPECT_EQ(ProcSet::firstN(65).count(), 65u);
  EXPECT_EQ(ProcSet::firstN(430).count(), 430u);
  EXPECT_EQ(ProcSet::firstN(1024).count(), 1024u);
  const ProcSet s = ProcSet::firstN(100);
  EXPECT_TRUE(s.contains(99));
  EXPECT_FALSE(s.contains(100));
}

TEST(ProcSet, FirstNBeyondInlineBits) {
  const ProcSet s = ProcSet::firstN(ProcSet::kInlineBits + 1);
  EXPECT_EQ(s.count(), ProcSet::kInlineBits + 1);
  EXPECT_TRUE(s.contains(ProcSet::kInlineBits));
  EXPECT_FALSE(s.contains(ProcSet::kInlineBits + 1));
  const ProcSet big = ProcSet::firstN(100'000);
  EXPECT_EQ(big.count(), 100'000u);
  EXPECT_TRUE(big.contains(99'999));
  EXPECT_FALSE(big.contains(100'000));
}

TEST(ProcSet, LargeSetInsertEraseAcrossBoundary) {
  ProcSet s;
  for (std::uint32_t p : {1023u, 1024u, 4096u, 65'535u, 99'999u}) s.insert(p);
  EXPECT_EQ(s.count(), 5u);
  for (std::uint32_t p : {1023u, 1024u, 4096u, 65'535u, 99'999u})
    EXPECT_TRUE(s.contains(p));
  EXPECT_FALSE(s.contains(1025));
  s.erase(4096);
  s.erase(99'999);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_FALSE(s.contains(4096));
  s.erase(1024);
  s.erase(65'535);
  s.erase(1023);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s, ProcSet{});
}

TEST(ProcSet, LargeSetEqualityIsHistoryIndependent) {
  // Canonical trimming: the same member set must compare equal no matter
  // which operations built it (windows grown high-to-low, low-to-high, or
  // carved out of a larger set).
  ProcSet up, down;
  for (std::uint32_t p : {2000u, 50'000u, 90'000u}) up.insert(p);
  for (std::uint32_t p : {90'000u, 50'000u, 2000u}) down.insert(p);
  EXPECT_EQ(up, down);
  ProcSet carved = ProcSet::firstN(100'000);
  carved &= up;
  EXPECT_EQ(carved, up);
  ProcSet wide = up;
  wide.insert(99'000);
  wide.erase(99'000);
  EXPECT_EQ(wide, up);
  wide.insert(1500);
  wide.erase(1500);
  EXPECT_EQ(wide, up);
}

TEST(ProcSet, LargeSetLowestSpansBoundary) {
  const ProcSet all = ProcSet::firstN(3000);
  EXPECT_EQ(all.lowest(1024), ProcSet::firstN(1024));
  EXPECT_EQ(all.lowest(2000), ProcSet::firstN(2000));
  EXPECT_EQ(all.lowest(3000), all);
  ProcSet sparse;
  for (std::uint32_t p = 0; p < 3000; p += 100) sparse.insert(p);
  const ProcSet low = sparse.lowest(15);
  EXPECT_EQ(low.count(), 15u);
  EXPECT_TRUE(low.contains(1400));
  EXPECT_FALSE(low.contains(1500));
}

TEST(ProcSet, LargeSetFirstAndForEach) {
  ProcSet s;
  s.insert(70'000);
  EXPECT_EQ(s.first(), 70'000u);
  s.insert(1024);
  EXPECT_EQ(s.first(), 1024u);
  s.insert(5);
  EXPECT_EQ(s.first(), 5u);
  std::vector<std::uint32_t> seen;
  s.forEach([&](std::uint32_t p) { seen.push_back(p); });
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{5, 1024, 70'000}));
  EXPECT_EQ(s.toString(), "{5,1024,70000}");
}

TEST(ProcSet, SetAlgebra) {
  ProcSet a, b;
  for (std::uint32_t i = 0; i < 10; ++i) a.insert(i);
  for (std::uint32_t i = 5; i < 15; ++i) b.insert(i);
  EXPECT_EQ((a | b).count(), 15u);
  EXPECT_EQ((a & b).count(), 5u);
  EXPECT_EQ((a - b).count(), 5u);
  EXPECT_TRUE((a - b).contains(0));
  EXPECT_FALSE((a - b).contains(5));
  EXPECT_TRUE((a & b).contains(7));
}

TEST(ProcSet, CompoundAssignmentMatchesBinary) {
  ProcSet a, b;
  a.insert(3);
  a.insert(100);
  b.insert(100);
  b.insert(200);
  ProcSet u = a;
  u |= b;
  EXPECT_EQ(u, (a | b));
  ProcSet i = a;
  i &= b;
  EXPECT_EQ(i, (a & b));
  ProcSet d = a;
  d -= b;
  EXPECT_EQ(d, (a - b));
}

TEST(ProcSet, IntersectsAndSubset) {
  ProcSet a, b, c;
  a.insert(1);
  a.insert(2);
  b.insert(2);
  b.insert(3);
  c.insert(1);
  EXPECT_TRUE(a.intersects(b));
  EXPECT_FALSE(b.intersects(c));
  EXPECT_TRUE(c.isSubsetOf(a));
  EXPECT_FALSE(a.isSubsetOf(c));
  EXPECT_TRUE(ProcSet{}.isSubsetOf(a));
  EXPECT_FALSE(a.intersects(ProcSet{}));
}

TEST(ProcSet, LowestTakesSmallestIds) {
  ProcSet s;
  for (std::uint32_t p : {5u, 70u, 3u, 200u, 64u}) s.insert(p);
  const ProcSet low = s.lowest(3);
  EXPECT_EQ(low.count(), 3u);
  EXPECT_TRUE(low.contains(3));
  EXPECT_TRUE(low.contains(5));
  EXPECT_TRUE(low.contains(64));
  EXPECT_FALSE(low.contains(70));
}

TEST(ProcSet, LowestAllAndZero) {
  ProcSet s;
  s.insert(10);
  s.insert(20);
  EXPECT_EQ(s.lowest(2), s);
  EXPECT_TRUE(s.lowest(0).empty());
}

TEST(ProcSet, LowestTooManyThrows) {
  ProcSet s;
  s.insert(1);
  EXPECT_THROW((void)s.lowest(2), InvariantError);
}

TEST(ProcSet, FirstReturnsMinimum) {
  ProcSet s;
  s.insert(700);
  EXPECT_EQ(s.first(), 700u);
  s.insert(64);
  EXPECT_EQ(s.first(), 64u);
  s.insert(2);
  EXPECT_EQ(s.first(), 2u);
}

TEST(ProcSet, FirstOnEmptyThrows) {
  EXPECT_THROW((void)ProcSet{}.first(), InvariantError);
}

TEST(ProcSet, ForEachVisitsInOrder) {
  ProcSet s;
  const std::vector<std::uint32_t> expected = {0, 63, 64, 128, 1000};
  for (auto p : expected) s.insert(p);
  std::vector<std::uint32_t> seen;
  s.forEach([&](std::uint32_t p) { seen.push_back(p); });
  EXPECT_EQ(seen, expected);
}

TEST(ProcSet, ToStringRanges) {
  ProcSet s;
  for (std::uint32_t p : {0u, 1u, 2u, 3u, 7u, 12u, 13u, 14u, 15u}) s.insert(p);
  EXPECT_EQ(s.toString(), "{0-3,7,12-15}");
  EXPECT_EQ(ProcSet{}.toString(), "{}");
  ProcSet single;
  single.insert(5);
  EXPECT_EQ(single.toString(), "{5}");
}

TEST(ProcSet, EqualityIsStructural) {
  ProcSet a, b;
  a.insert(9);
  b.insert(9);
  EXPECT_EQ(a, b);
  b.insert(10);
  EXPECT_NE(a, b);
}

// Property sweep: algebra laws on random sets across word boundaries AND
// across the inline/window representation boundary (odd seeds draw from
// [0, 100k), so both modes participate in every identity).
class ProcSetProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProcSetProperty, AlgebraLaws) {
  Rng rng(GetParam());
  const std::int64_t hi = (GetParam() % 2 == 0) ? 1023 : 99'999;
  ProcSet a, b;
  for (int i = 0; i < 60; ++i) {
    a.insert(static_cast<std::uint32_t>(rng.uniformInt(0, hi)));
    b.insert(static_cast<std::uint32_t>(rng.uniformInt(0, hi)));
  }
  // De Morgan-ish identities expressible without complement:
  EXPECT_EQ(((a | b) - b), (a - b));
  EXPECT_EQ(((a & b) | (a - b)), a);
  EXPECT_EQ((a | b).count() + (a & b).count(), a.count() + b.count());
  EXPECT_TRUE((a & b).isSubsetOf(a));
  EXPECT_TRUE(a.isSubsetOf(a | b));
  EXPECT_EQ(a.intersects(b), !(a & b).empty());
  // lowest(k) is a k-subset whose members all precede every excluded member.
  const auto k = a.count() / 2;
  const ProcSet low = a.lowest(k);
  EXPECT_EQ(low.count(), k);
  EXPECT_TRUE(low.isSubsetOf(a));
  if (!low.empty() && !(a - low).empty()) {
    std::uint32_t maxLow = 0;
    low.forEach([&](std::uint32_t p) { maxLow = p; });
    EXPECT_LT(maxLow, (a - low).first());
  }
}

TEST_P(ProcSetProperty, LowestIsPrefixOfIteration) {
  Rng rng(GetParam() * 7919);
  const std::int64_t hi = (GetParam() % 2 == 0) ? 1023 : 99'999;
  ProcSet a;
  for (int i = 0; i < 40; ++i)
    a.insert(static_cast<std::uint32_t>(rng.uniformInt(0, hi)));
  std::vector<std::uint32_t> all;
  a.forEach([&](std::uint32_t p) { all.push_back(p); });
  const auto k = static_cast<std::uint32_t>(
      rng.uniformInt(0, static_cast<std::int64_t>(all.size())));
  std::vector<std::uint32_t> low;
  a.lowest(k).forEach([&](std::uint32_t p) { low.push_back(p); });
  ASSERT_EQ(low.size(), k);
  for (std::uint32_t i = 0; i < k; ++i) EXPECT_EQ(low[i], all[i]);
}

// The word walks against forEach: forEachWord spells out the set a word
// at a time, forEachWordAnd the intersection, each in increasing order and
// skipping empty words.
TEST_P(ProcSetProperty, WordWalksSpellOutTheSet) {
  Rng rng(GetParam() * 104729);
  const std::int64_t hi = (GetParam() % 2 == 0) ? 1023 : 99'999;
  ProcSet a, b;
  for (int i = 0; i < 80; ++i) {
    a.insert(static_cast<std::uint32_t>(rng.uniformInt(0, hi)));
    b.insert(static_cast<std::uint32_t>(rng.uniformInt(0, hi)));
  }
  const auto spell = [](auto walk) {
    std::vector<std::uint32_t> out;
    std::uint32_t lastWord = 0;
    bool first = true;
    walk([&](std::uint32_t w, std::uint64_t bits) {
      EXPECT_NE(bits, 0u);
      EXPECT_TRUE(first || w > lastWord);
      first = false;
      lastWord = w;
      for (; bits != 0; bits &= bits - 1)
        out.push_back(w * 64 + static_cast<std::uint32_t>(
                                   __builtin_ctzll(bits)));
    });
    return out;
  };
  const auto members = [](const ProcSet& s) {
    std::vector<std::uint32_t> out;
    s.forEach([&](std::uint32_t p) { out.push_back(p); });
    return out;
  };
  EXPECT_EQ(spell([&](auto f) { a.forEachWord(f); }), members(a));
  EXPECT_EQ(spell([&](auto f) { a.forEachWordAnd(b, f); }), members(a & b));
  EXPECT_EQ(spell([&](auto f) { a.forEachWordAnd(ProcSet{}, f); }),
            std::vector<std::uint32_t>{});
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProcSetProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace sps::sim
