#include "sched/core/occupancy_record.hpp"

#include <algorithm>
#include <bit>

#include "sim/simulator.hpp"

namespace sps::sched::kernel {

void OccupancyRecord::attach(sim::Simulator& simulator,
                             double suspensionFactor) {
  sf_ = suspensionFactor;
  const std::uint32_t procs = simulator.machine().totalProcs();
  chunkShift_ = procs <= sim::ProcSet::kInlineBits ? 0 : 6;
  head_.resize(((procs - 1) >> chunkShift_) + 1, kNone);
  attached_ = &simulator;
  simulator.observers().onStateChange(
      [this](const sim::Simulator& s, JobId id, sim::JobState from,
             sim::JobState to) { onTransition(s, id, from, to); });
}

void OccupancyRecord::onTransition(const sim::Simulator& s, JobId id,
                                   sim::JobState from, sim::JobState to) {
  using sim::JobState;
  // Resumed or cancelled: the job is owed nothing any more.
  if (from == JobState::Suspended) erase(entryOf(id));
  const bool starts = to == JobState::Running;
  const bool leavesRunning = from == JobState::Running;
  // The processors turn free: a finish or an undrained suspension, or the
  // end of a drain. Running -> Suspending keeps them held.
  const bool frees = (leavesRunning && to != JobState::Suspending) ||
                     from == JobState::Suspending;
  if (starts || leavesRunning || frees) {
    // The job's frozen priority, as the floors scale it. A drain's end
    // moves no running job and leaves the floors alone.
    const double floor =
        starts || leavesRunning ? sf_ * s.xfactor(id) : 0.0;
    // Only the chunks some other Suspended job is owed have a list. At
    // every observer call the simulator's owed set covers exactly the
    // recorded jobs' sets, plus `id`'s own when it was just suspended.
    const auto visit = [&](std::uint32_t c, std::uint64_t bits) {
      for (std::uint32_t n = head_[c]; n != kNone; n = nodes_[n].next) {
        const std::uint64_t shared = bits & nodes_[n].mask;
        if (shared == 0) continue;
        const std::uint32_t i = nodes_[n].entry;
        Entry& e = entries_[i];
        const auto count = static_cast<std::uint32_t>(std::popcount(shared));
        if (starts) {
          if (e.held == 0) dropUnheld(i);
          e.held += count;
          // A node per chunk: the job may already have been raised here.
          if (!e.floorStale) e.floor = std::max(e.floor, floor);
          continue;
        }
        if (frees) {
          e.held -= count;
          if (e.held == 0) addUnheld(i);
        }
        // Another running job on the set may share the departing one's
        // priority; only a recomputation tells.
        if (leavesRunning && floor == e.floor) e.floorStale = true;
      }
    };
    s.procSet(id).forEachWordAnd(
        s.suspendedOwedSet(), [&](std::uint32_t w, std::uint64_t bits) {
          forEachChunk(w, bits, visit);
        });
  }
  if (to == JobState::Suspended) insert(s, id);
}

void OccupancyRecord::insert(const sim::Simulator& s, JobId id) {
  // The job held its set alone until now and has just released it, so
  // none of it is held and nothing runs there.
  const auto i = static_cast<std::uint32_t>(entries_.size());
  entries_.push_back({id, s.job(id).procs, 0, kNone, 0, false,
                      -std::numeric_limits<double>::infinity()});
  // The chain grows at its tail; an index, since a new node may move
  // nodes_.
  std::uint32_t tail = kNone;
  const auto link = [&](std::uint32_t c, std::uint64_t bits) {
    std::uint32_t n = spareNode_;
    if (n == kNone) {
      n = static_cast<std::uint32_t>(nodes_.size());
      nodes_.emplace_back();
    } else {
      spareNode_ = nodes_[n].next;
    }
    nodes_[n] = {bits, id, i, c, head_[c], kNone, kNone};
    if (head_[c] != kNone) nodes_[head_[c]].prev = n;
    head_[c] = n;
    (tail == kNone ? entries_[i].firstNode : nodes_[tail].sibling) = n;
    tail = n;
  };
  s.procSet(id).forEachWord([&](std::uint32_t w, std::uint64_t bits) {
    forEachChunk(w, bits, link);
  });
  addUnheld(i);
}

void OccupancyRecord::erase(std::uint32_t i) {
  for (std::uint32_t n = entries_[i].firstNode; n != kNone;) {
    const Node node = nodes_[n];
    if (node.prev != kNone)
      nodes_[node.prev].next = node.next;
    else
      head_[node.chunk] = node.next;
    if (node.next != kNone) nodes_[node.next].prev = node.prev;
    nodes_[n].next = spareNode_;
    spareNode_ = n;
    n = node.sibling;
  }
  if (entries_[i].held == 0) dropUnheld(i);
  const auto last = static_cast<std::uint32_t>(entries_.size() - 1);
  if (i != last) {
    // Swap-and-pop: the last entry moves into slot i, and its nodes and
    // unheld slot follow it.
    entries_[i] = entries_[last];
    for (std::uint32_t n = entries_[i].firstNode; n != kNone;
         n = nodes_[n].sibling)
      nodes_[n].entry = i;
    if (entries_[i].held == 0) unheld_[entries_[i].unheldPos] = i;
  }
  entries_.pop_back();
}

std::uint32_t OccupancyRecord::entryOf(JobId id) const {
  const std::uint32_t c = attached_->procSet(id).first() >> chunkShift_;
  for (std::uint32_t n = head_[c]; n != kNone; n = nodes_[n].next)
    if (nodes_[n].job == id) return nodes_[n].entry;
  SPS_CHECK_MSG(false, "occupancy record missing suspended job " << id);
  return kNone;
}

void OccupancyRecord::addUnheld(std::uint32_t i) {
  entries_[i].unheldPos = static_cast<std::uint32_t>(unheld_.size());
  unheld_.push_back(i);
}

void OccupancyRecord::dropUnheld(std::uint32_t i) {
  const std::uint32_t pos = entries_[i].unheldPos;
  const std::uint32_t moved = unheld_.back();
  unheld_[pos] = moved;
  entries_[moved].unheldPos = pos;
  unheld_.pop_back();
}

double OccupancyRecord::floor(JobId id, const VictimIndex& running) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Entry& e = entries_[entryOf(id)];
  if (e.floorStale) {
    // An occupant's processors mostly run in a row: skip repeats of the
    // last owner.
    const sim::Simulator& s = *attached_;
    double highest = -kInf;
    JobId last = kInvalidJob;
    s.procSet(id).forEach([&](std::uint32_t p) {
      const JobId r = running.ownerOf(p);
      if (r == kInvalidJob || r == last) return;
      last = r;
      highest = std::max(highest, s.xfactor(r));
    });
    e.floor = sf_ * highest;
    e.floorStale = false;
  }
  return e.floor == -kInf ? kInf : e.floor;
}

}  // namespace sps::sched::kernel
