// Idle-job orders for the preemptive policies' walks (SS/TSS and IS).
//
// No order is kept between walks: each walk gathers the idle jobs it can
// act on and orders that list — sorted, or (SS/TSS dispatch) heapified and
// popped only as far as the walk goes. Both comparators are strict total
// orders (every tie broken by job id), so the result does not depend on
// gather order — which makes unordered (swap-and-pop) job lists safe to
// gather from, and gives a filtered subset the same relative order a sort
// of the whole idle set would.
#pragma once

#include <algorithm>
#include <vector>

#include "sched/core/idle_lines.hpp"
#include "sim/simulator.hpp"

namespace sps::sched::kernel {

/// An idle job as the SS/TSS walks gather it: the record the tick gate
/// reports, with the priority read once, at gather time.
[[nodiscard]] inline IdleLineIndex::Hit idleHit(const sim::Simulator& s,
                                                JobId id) {
  const workload::Job& j = s.job(id);
  return {s.xfactor(id), static_cast<double>(j.estimate), id, j.procs};
}

/// Eq. 2 priority order (SS/TSS): true when `a` walks before `b` —
/// expansion factor descending, then submit time, then id. The records
/// carry their priority; the submit time is read only on priority ties.
struct HitOrder {
  const sim::Simulator& s;
  bool operator()(const IdleLineIndex::Hit& a,
                  const IdleLineIndex::Hit& b) const {
    if (a.x != b.x) return a.x > b.x;
    const Time sa = s.job(a.id).submit;
    const Time sb = s.job(b.id).submit;
    if (sa != sb) return sa < sb;
    return a.id < b.id;
  }
};

/// Heap whose top walks first under HitOrder: heapify once, then each
/// popWalkHeap yields the next job in Eq. 2 order, so a walk that stops
/// early never orders the rest. std's heaps keep the greatest element on
/// top, hence the reversed comparator.
struct WalksAfter {
  HitOrder order;
  bool operator()(const IdleLineIndex::Hit& a,
                  const IdleLineIndex::Hit& b) const {
    return order(b, a);
  }
};
inline void makeWalkHeap(std::vector<IdleLineIndex::Hit>& hits,
                         HitOrder order) {
  std::make_heap(hits.begin(), hits.end(), WalksAfter{order});
}
inline IdleLineIndex::Hit popWalkHeap(std::vector<IdleLineIndex::Hit>& hits,
                                      HitOrder order) {
  std::pop_heap(hits.begin(), hits.end(), WalksAfter{order});
  const IdleLineIndex::Hit top = hits.back();
  hits.pop_back();
  return top;
}

/// Submission order (IS): submit time, then id.
inline void sortBySubmit(std::vector<JobId>& jobs, const sim::Simulator& s) {
  std::sort(jobs.begin(), jobs.end(), [&s](JobId a, JobId b) {
    if (s.job(a).submit != s.job(b).submit)
      return s.job(a).submit < s.job(b).submit;
    return a < b;
  });
}

}  // namespace sps::sched::kernel
