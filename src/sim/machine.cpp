#include "sim/machine.hpp"

namespace sps::sim {

Machine::Machine(std::uint32_t totalProcs)
    : total_(totalProcs),
      free_(ProcSet::firstN(totalProcs)),
      freeCount_(totalProcs) {
  SPS_CHECK_MSG(totalProcs > 0 && totalProcs <= kMaxMachineProcs,
                "machine size " << totalProcs << " out of range");
}

void Machine::advance(Time now) {
  SPS_CHECK_MSG(now >= lastChange_, "machine time went backwards: " << now
                                        << " < " << lastChange_);
  busyIntegral_ += static_cast<double>(busyCount()) *
                   static_cast<double>(now - lastChange_);
  lastChange_ = now;
}

ProcSet Machine::allocate(std::uint32_t n, Time now,
                          const ProcSet& hardAvoid,
                          const ProcSet& softAvoid) {
  SPS_CHECK_MSG(n > 0, "allocate(0)");
  SPS_CHECK_MSG(n <= freeCount(),
                "allocate(" << n << ") with only " << freeCount() << " free");
  ProcSet chosen = hardAvoid.empty() && softAvoid.empty()
                       ? free_.lowest(n)
                       : lowestAvoiding(n, hardAvoid, softAvoid);
  advance(now);
  free_ -= chosen;
  freeCount_ -= n;
  return chosen;
}

ProcSet Machine::lowestAvoiding(std::uint32_t n, const ProcSet& hardAvoid,
                                const ProcSet& softAvoid) const {
  // One set for both tiers would let the shortfall take fenced processors
  // (the differential fuzzer's first find), so the fence is applied first.
  const ProcSet pool = free_ - hardAvoid;
  const std::uint32_t unfenced = pool.count();
  SPS_CHECK_MSG(n <= unfenced, "allocate(" << n << ") with only " << unfenced
                                           << " unfenced free processors");
  if (softAvoid.empty()) return pool.lowest(n);  // a fence only, as Lease has
  ProcSet chosen = pool - softAvoid;
  const std::uint32_t clear = chosen.count();
  if (clear >= n) return chosen.lowest(n);
  chosen |= (pool & softAvoid).lowest(n - clear);
  return chosen;
}

void Machine::allocateExact(const ProcSet& procs, Time now) {
  SPS_CHECK_MSG(!procs.empty(), "allocateExact of empty set");
  SPS_CHECK_MSG(procs.isSubsetOf(free_),
                "allocateExact of non-free processors " << procs.toString());
  advance(now);
  free_ -= procs;
  freeCount_ -= procs.count();
}

void Machine::release(const ProcSet& procs, Time now) {
  SPS_CHECK_MSG(!procs.empty(), "release of empty set");
  SPS_CHECK_MSG(!procs.intersects(free_),
                "release of already-free processors " << procs.toString());
  advance(now);
  free_ |= procs;
  freeCount_ += procs.count();
}

double Machine::busyProcSeconds(Time now) const {
  SPS_CHECK(now >= lastChange_);
  return busyIntegral_ + static_cast<double>(busyCount()) *
                             static_cast<double>(now - lastChange_);
}

}  // namespace sps::sim
