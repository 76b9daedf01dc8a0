// Unit tests: sim::Machine (allocation, release, busy-time integral).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/machine.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace sps::sim {
namespace {

TEST(Machine, StartsAllFree) {
  Machine m(128);
  EXPECT_EQ(m.totalProcs(), 128u);
  EXPECT_EQ(m.freeCount(), 128u);
  EXPECT_EQ(m.busyCount(), 0u);
}

TEST(Machine, RejectsZeroOrOversizedMachine) {
  EXPECT_THROW(Machine(0), InvariantError);
  EXPECT_THROW(Machine(Machine::kMaxMachineProcs + 1), InvariantError);
}

TEST(Machine, SupportsMachinesBeyondInlineBits) {
  Machine m(100'000);
  EXPECT_EQ(m.totalProcs(), 100'000u);
  EXPECT_EQ(m.freeCount(), 100'000u);
  const ProcSet a = m.allocate(50'000, 0);
  EXPECT_EQ(a, ProcSet::firstN(50'000));
  EXPECT_EQ(m.freeCount(), 50'000u);
  const ProcSet b = m.allocate(50'000, 0);
  EXPECT_EQ(m.freeCount(), 0u);
  EXPECT_TRUE(b.contains(99'999));
  m.release(a, 10);
  EXPECT_EQ(m.freeCount(), 50'000u);
  m.release(b, 10);
  EXPECT_EQ(m.freeCount(), 100'000u);
  EXPECT_EQ(m.freeSet(), ProcSet::firstN(100'000));
}

TEST(Machine, AllocateTakesLowestFree) {
  Machine m(16);
  const ProcSet a = m.allocate(4, 0);
  EXPECT_EQ(a, ProcSet::firstN(4));
  EXPECT_EQ(m.freeCount(), 12u);
  const ProcSet b = m.allocate(2, 0);
  EXPECT_TRUE(b.contains(4));
  EXPECT_TRUE(b.contains(5));
}

TEST(Machine, ReleaseMakesProcsReusable) {
  Machine m(8);
  const ProcSet a = m.allocate(8, 0);
  EXPECT_EQ(m.freeCount(), 0u);
  m.release(a, 10);
  EXPECT_EQ(m.freeCount(), 8u);
  EXPECT_EQ(m.allocate(8, 10), a);
}

TEST(Machine, AllocateMoreThanFreeThrows) {
  Machine m(4);
  m.allocate(3, 0);
  EXPECT_THROW(m.allocate(2, 0), InvariantError);
}

TEST(Machine, AllocateZeroThrows) {
  Machine m(4);
  EXPECT_THROW(m.allocate(0, 0), InvariantError);
}

TEST(Machine, DoubleReleaseThrows) {
  Machine m(4);
  const ProcSet a = m.allocate(2, 0);
  m.release(a, 1);
  EXPECT_THROW(m.release(a, 2), InvariantError);
}

TEST(Machine, ReleaseOfFreeProcsThrows) {
  Machine m(4);
  ProcSet s;
  s.insert(3);
  EXPECT_THROW(m.release(s, 0), InvariantError);
}

TEST(Machine, AllocateExactTakesRequestedSet) {
  Machine m(16);
  ProcSet want;
  want.insert(3);
  want.insert(9);
  m.allocateExact(want, 0);
  EXPECT_EQ(m.freeCount(), 14u);
  EXPECT_FALSE(m.freeSet().contains(3));
  EXPECT_FALSE(m.freeSet().contains(9));
}

TEST(Machine, AllocateExactOfBusyThrows) {
  Machine m(16);
  const ProcSet a = m.allocate(4, 0);
  EXPECT_THROW(m.allocateExact(a, 0), InvariantError);
}

TEST(Machine, AllocateAvoidingSkipsAvoidSet) {
  Machine m(8);
  ProcSet avoid;
  avoid.insert(0);
  avoid.insert(1);
  const ProcSet got = m.allocate(2, 0, avoid);
  EXPECT_TRUE(got.contains(2));
  EXPECT_TRUE(got.contains(3));
  EXPECT_FALSE(got.intersects(avoid));
  // The avoided processors are still free.
  EXPECT_TRUE(avoid.isSubsetOf(m.freeSet()));
}

TEST(Machine, AllocateAvoidingInsufficientThrows) {
  Machine m(4);
  const ProcSet avoid = ProcSet::firstN(3);
  EXPECT_THROW(m.allocate(2, 0, avoid), InvariantError);
}

TEST(Machine, BusyIntegralAccumulates) {
  Machine m(10);
  EXPECT_DOUBLE_EQ(m.busyProcSeconds(100), 0.0);
  const ProcSet a = m.allocate(4, 100);   // 4 busy from t=100
  EXPECT_DOUBLE_EQ(m.busyProcSeconds(110), 40.0);
  const ProcSet b = m.allocate(6, 110);   // 10 busy from t=110
  EXPECT_DOUBLE_EQ(m.busyProcSeconds(120), 40.0 + 100.0);
  m.release(a, 120);                      // 6 busy from t=120
  m.release(b, 130);
  EXPECT_DOUBLE_EQ(m.busyProcSeconds(130), 40.0 + 100.0 + 60.0);
  EXPECT_DOUBLE_EQ(m.busyProcSeconds(1000), 200.0);
}

TEST(Machine, TimeMustNotGoBackwards) {
  Machine m(4);
  m.allocate(1, 100);
  EXPECT_THROW(m.allocate(1, 50), InvariantError);
}

TEST(Machine, FullMachineLifecycle) {
  Machine m(430);  // CTC size
  const ProcSet all = m.allocate(430, 0);
  EXPECT_EQ(m.busyCount(), 430u);
  EXPECT_EQ(m.freeCount(), 0u);
  m.release(all, 3600);
  EXPECT_DOUBLE_EQ(m.busyProcSeconds(3600), 430.0 * 3600.0);
}

// --- allocate against its documented rules ---------------------------------

/// What one differential run of allocate() met, so each test can insist
/// its random sets reached every rule.
struct AllocateCoverage {
  int overlapping = 0;  ///< hard and soft shared a free processor
  int exact = 0;        ///< n was the whole unfenced free count
  int shortfall = 0;    ///< the choice had to dip into softAvoid
  int unset = 0;        ///< both sets empty
  int refused = 0;      ///< n exceeded the unfenced free count
};

/// Random free, hard and soft sets on a `procs`-wide machine, each at its
/// own random density (sometimes empty), checked against a reference built
/// from allocate()'s three rules: the lowest free processors outside both
/// sets first; then, for the shortfall, the lowest free ones in softAvoid;
/// never one in hardAvoid.
AllocateCoverage expectAllocateMatchesRules(std::uint32_t procs, int rounds,
                                            std::uint64_t seed) {
  AllocateCoverage seen;
  Rng rng(seed);
  const auto density = [&rng] {
    const std::int64_t pick = rng.uniformInt(0, 4);
    return pick == 0 ? 0.0 : rng.uniform01();
  };
  for (int round = 0; round < rounds; ++round) {
    const double busyP = density();
    const double hardP = density();
    const double softP = density();
    std::vector<bool> isFree(procs);
    std::vector<bool> isHard(procs);
    std::vector<bool> isSoft(procs);
    ProcSet busy;
    ProcSet hard;
    ProcSet soft;
    for (std::uint32_t p = 0; p < procs; ++p) {
      isFree[p] = rng.uniform01() >= busyP;
      isHard[p] = rng.uniform01() < hardP;
      isSoft[p] = rng.uniform01() < softP;
      if (!isFree[p]) busy.insert(p);
      if (isHard[p]) hard.insert(p);
      if (isSoft[p]) soft.insert(p);
    }
    // Reference: the two tiers in processor order, the fence left out.
    std::vector<std::uint32_t> clear;
    std::vector<std::uint32_t> softOnly;
    bool overlap = false;
    for (std::uint32_t p = 0; p < procs; ++p) {
      if (!isFree[p]) continue;
      if (isHard[p]) {
        overlap = overlap || isSoft[p];
        continue;
      }
      (isSoft[p] ? softOnly : clear).push_back(p);
    }
    const auto unfenced =
        static_cast<std::uint32_t>(clear.size() + softOnly.size());
    Machine m(procs);
    if (!busy.empty()) m.allocateExact(busy, 0);
    const ProcSet freeBefore = m.freeSet();
    if (unfenced == 0 || rng.uniformInt(0, 7) == 0) {
      // More than the unfenced count: refused, and nothing is taken.
      EXPECT_THROW((void)m.allocate(unfenced + 1, 1, hard, soft),
                   InvariantError);
      EXPECT_EQ(m.freeSet(), freeBefore);
      ++seen.refused;
      continue;
    }
    const auto n = rng.uniformInt(0, 2) == 0
                       ? unfenced
                       : static_cast<std::uint32_t>(
                             rng.uniformInt(1, unfenced));
    ProcSet want;
    for (std::uint32_t i = 0; i < n; ++i)
      want.insert(i < clear.size() ? clear[i] : softOnly[i - clear.size()]);
    const ProcSet got = m.allocate(n, 1, hard, soft);
    EXPECT_EQ(got, want) << "round " << round << " of " << procs
                         << " procs: n=" << n << " got " << got.toString()
                         << " want " << want.toString();
    EXPECT_EQ(m.freeSet(), freeBefore - want);
    EXPECT_EQ(m.freeCount(), freeBefore.count() - n);
    seen.overlapping += overlap;
    seen.exact += n == unfenced;
    seen.shortfall += n > clear.size();
    seen.unset += hard.empty() && soft.empty();
  }
  return seen;
}

TEST(MachineAllocate, MatchesItsRulesOnInlineWords) {
  const AllocateCoverage seen = expectAllocateMatchesRules(96, 3000, 11);
  EXPECT_GT(seen.overlapping, 0);
  EXPECT_GT(seen.exact, 0);
  EXPECT_GT(seen.shortfall, 0);
  EXPECT_GT(seen.unset, 0);
  EXPECT_GT(seen.refused, 0);
}

TEST(MachineAllocate, MatchesItsRulesOnTheWordWindow) {
  const AllocateCoverage seen = expectAllocateMatchesRules(5000, 600, 12);
  EXPECT_GT(seen.overlapping, 0);
  EXPECT_GT(seen.exact, 0);
  EXPECT_GT(seen.shortfall, 0);
  EXPECT_GT(seen.unset, 0);
  EXPECT_GT(seen.refused, 0);
}

}  // namespace
}  // namespace sps::sim
