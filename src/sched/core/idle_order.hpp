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

/// An idle job with its sort keys read once, at gather time.
struct IdleJob {
  double priority;  ///< expansion factor (Eq. 2)
  Time submit;
  JobId id;
};

[[nodiscard]] inline IdleJob idleJob(const sim::Simulator& s, JobId id) {
  return {s.xfactor(id), s.job(id).submit, id};
}

/// Eq. 2 priority order (SS/TSS): true when `a` walks before `b` —
/// expansion factor descending, then submit time, then id.
[[nodiscard]] inline bool walksBefore(const IdleJob& a, const IdleJob& b) {
  if (a.priority != b.priority) return a.priority > b.priority;
  if (a.submit != b.submit) return a.submit < b.submit;
  return a.id < b.id;
}

inline void sortByPriority(std::vector<IdleJob>& jobs) {
  std::sort(jobs.begin(), jobs.end(), walksBefore);
}

/// walksBefore over the SS/TSS tick gate's reported lines, which carry
/// their priority but not their submit time (read only on priority ties).
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

/// Heap whose top walks first under walksBefore: heapify once, then each
/// popWalkHeap yields the next job in Eq. 2 order, so a walk that stops
/// early never orders the rest.
inline bool walksAfter(const IdleJob& a, const IdleJob& b) {
  return walksBefore(b, a);
}
inline void makeWalkHeap(std::vector<IdleJob>& jobs) {
  std::make_heap(jobs.begin(), jobs.end(), walksAfter);
}
inline IdleJob popWalkHeap(std::vector<IdleJob>& jobs) {
  std::pop_heap(jobs.begin(), jobs.end(), walksAfter);
  const IdleJob top = jobs.back();
  jobs.pop_back();
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
