// EventQueue — the discrete-event core's set of pending dynamic events.
//
// Arrivals never enter this queue. The trace is already sorted by submit
// time, so the simulator serves arrivals from a cursor over it and merges
// that cursor with this queue at dispatch (Simulator::dispatchOne): the
// next arrival fires whenever its submit time is <= the queue's earliest
// time. The queue therefore holds only completions, suspend drains and
// policy timers — O(running + timers) entries — in a binary min-heap.
//
// The merged order is (time, band, seq): at one instant arrivals (band 0)
// fire before every queued event, in id order among themselves, and queued
// events fire in the order they were scheduled (the sequence number the
// queue assigns makes that order total and deterministic). Batch and
// streamed runs therefore replay bit-identically.
//
// Completions cancelled by preemption are handled by the *simulator* with
// generation counters (stale events are popped and ignored), so the queue
// itself needs no removal support.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "util/check.hpp"
#include "util/types.hpp"

namespace sps::sim {

enum class EventType : std::uint8_t {
  JobArrival,     ///< job submitted; payload = JobId (served by the cursor)
  JobCompletion,  ///< running job finished; payload = JobId, gen = counter
  SuspendDrained, ///< suspension overhead (memory write-out) done; payload = JobId
  Timer,          ///< policy timer; payload = opaque tag
};

struct Event {
  Time time = 0;
  /// Tie-breaker assigned by the queue; 0 on arrivals, which never enter it.
  std::uint64_t seq = 0;
  EventType type = EventType::Timer;
  std::uint64_t payload = 0;  ///< JobId or timer tag
  std::uint64_t generation = 0;  ///< completion-validity counter
};

/// Binary min-heap over (time, seq) of the non-arrival events.
class EventQueue {
 public:
  void push(Time time, EventType type, std::uint64_t payload,
            std::uint64_t generation = 0) {
    SPS_DCHECK(type != EventType::JobArrival);
    heap_.push(Event{time, nextSeq_++, type, payload, generation});
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Earliest event's time; requires non-empty.
  [[nodiscard]] Time nextTime() const {
    SPS_CHECK_MSG(!empty(), "nextTime() on empty queue");
    return heap_.top().time;
  }

  /// Remove and return the earliest event; requires non-empty.
  Event pop() {
    SPS_CHECK_MSG(!empty(), "pop() on empty queue");
    Event e = heap_.top();
    heap_.pop();
    return e;
  }

 private:
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  std::uint64_t nextSeq_ = 0;
};

}  // namespace sps::sim
