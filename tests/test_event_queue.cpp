// Unit tests: sim::EventQueue ordering semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/event_queue.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace sps::sim {
namespace {

TEST(EventQueue, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PopOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW(q.pop(), InvariantError);
  EXPECT_THROW((void)q.nextTime(), InvariantError);
}

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  q.push(30, EventType::Timer, 3);
  q.push(10, EventType::Timer, 1);
  q.push(20, EventType::Timer, 2);
  EXPECT_EQ(q.nextTime(), 10);
  EXPECT_EQ(q.pop().payload, 1u);
  EXPECT_EQ(q.pop().payload, 2u);
  EXPECT_EQ(q.pop().payload, 3u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  for (std::uint64_t i = 0; i < 50; ++i) q.push(42, EventType::Timer, i);
  for (std::uint64_t i = 0; i < 50; ++i) {
    const Event e = q.pop();
    EXPECT_EQ(e.time, 42);
    EXPECT_EQ(e.payload, i);
  }
}

TEST(EventQueue, InterleavedPushPopKeepsOrder) {
  EventQueue q;
  q.push(5, EventType::Timer, 0);
  q.push(1, EventType::Timer, 1);
  EXPECT_EQ(q.pop().payload, 1u);
  q.push(2, EventType::JobCompletion, 2);
  q.push(4, EventType::SuspendDrained, 3);
  EXPECT_EQ(q.pop().payload, 2u);
  EXPECT_EQ(q.pop().payload, 3u);
  EXPECT_EQ(q.pop().payload, 0u);
}

TEST(EventQueue, CarriesTypeAndGeneration) {
  EventQueue q;
  q.push(7, EventType::JobCompletion, 99, 5);
  const Event e = q.pop();
  EXPECT_EQ(e.type, EventType::JobCompletion);
  EXPECT_EQ(e.payload, 99u);
  EXPECT_EQ(e.generation, 5u);
  EXPECT_EQ(e.time, 7);
}

TEST(EventQueue, RandomizedOrderIsNonDecreasing) {
  EventQueue q;
  Rng rng(99);
  for (int i = 0; i < 1000; ++i)
    q.push(rng.uniformInt(0, 500), EventType::Timer,
           static_cast<std::uint64_t>(i));
  Time prev = -1;
  std::uint64_t prevSeq = 0;
  bool first = true;
  while (!q.empty()) {
    const Event e = q.pop();
    EXPECT_GE(e.time, prev);
    if (!first && e.time == prev) {
      EXPECT_GT(e.seq, prevSeq);
    }
    prev = e.time;
    prevSeq = e.seq;
    first = false;
  }
}

#ifndef NDEBUG
TEST(EventQueue, RejectsArrivals) {
  // Arrivals are served from the simulator's trace cursor, never queued.
  EventQueue q;
  EXPECT_THROW(q.push(1, EventType::JobArrival, 0), InvariantError);
}
#endif

// ---------------------------------------------------------------------------
// Property suite: the heap pops the total order (time, then insertion
// sequence). Every test below drives the queue and a sorted reference
// through one operation sequence and requires identical pop streams — the
// contract that lets simulations replay bit-identically.

/// The heap beside a sorted reference; every pop is compared.
class CheckedQueue {
 public:
  void push(Time t, EventType type, std::uint64_t payload,
            std::uint64_t gen = 0) {
    queue_.push(t, type, payload, gen);
    Event e;
    e.time = t;
    e.seq = pushed_++;
    e.type = type;
    e.payload = payload;
    e.generation = gen;
    // Insert after every event at or before (t, seq): the reference stays
    // sorted by (time, seq), earliest first.
    const auto at = std::upper_bound(
        ref_.begin(), ref_.end(), e, [](const Event& a, const Event& b) {
          return a.time < b.time || (a.time == b.time && a.seq < b.seq);
        });
    ref_.insert(at, e);
  }

  /// Pop from both and assert full equality, including seq (the queue
  /// assigns it from the push order, as the reference does).
  Event popChecked() {
    EXPECT_FALSE(ref_.empty());
    const Event got = queue_.pop();
    const Event want = ref_.front();
    ref_.erase(ref_.begin());
    EXPECT_EQ(got.time, want.time);
    EXPECT_EQ(got.seq, want.seq);
    EXPECT_EQ(got.type, want.type);
    EXPECT_EQ(got.payload, want.payload);
    EXPECT_EQ(got.generation, want.generation);
    EXPECT_EQ(queue_.size(), ref_.size());
    if (!ref_.empty()) {
      EXPECT_EQ(queue_.nextTime(), ref_.front().time);
    }
    return got;
  }

  void drainChecked() {
    while (!queue_.empty()) popChecked();
    EXPECT_TRUE(ref_.empty());
  }

  [[nodiscard]] bool empty() const { return queue_.empty(); }

 private:
  EventQueue queue_;
  std::vector<Event> ref_;
  std::uint64_t pushed_ = 0;
};

TEST(EventQueueProperty, RandomLoadPopsIdentically) {
  for (const std::uint64_t seed : {1u, 7u, 1234u, 987654u}) {
    CheckedQueue q;
    Rng rng(seed);
    for (int i = 0; i < 5000; ++i)
      q.push(rng.uniformInt(0, 200000), EventType::Timer,
             static_cast<std::uint64_t>(i));
    Time prev = -1;
    std::uint64_t prevSeq = 0;
    while (!q.empty()) {
      const Event e = q.popChecked();
      // Non-decreasing time; strictly increasing seq within a timestamp.
      EXPECT_GE(e.time, prev);
      if (e.time == prev) {
        EXPECT_GT(e.seq, prevSeq);
      }
      prev = e.time;
      prevSeq = e.seq;
    }
  }
}

TEST(EventQueueProperty, InterleavedPushPopIdentical) {
  // The simulator's actual shape: pop the earliest event, then push a
  // handful of follow-ups at or after "now" (same-instant cascades
  // included). Time never runs backwards relative to the last pop.
  CheckedQueue q;
  Rng rng(4242);
  q.push(0, EventType::Timer, 0);
  Time now = 0;
  std::uint64_t payload = 1;
  for (int step = 0; step < 4000 && !q.empty(); ++step) {
    const Event e = q.popChecked();
    now = e.time;
    const auto follow = static_cast<int>(rng.uniformInt(0, 3));
    for (int f = 0; f < follow; ++f) {
      const Time at = now + rng.uniformInt(0, 300);
      const auto type = static_cast<EventType>(rng.uniformInt(1, 3));
      q.push(at, type, payload++,
             static_cast<std::uint64_t>(rng.uniformInt(0, 2)));
    }
  }
  q.drainChecked();
}

TEST(EventQueueProperty, SameInstantBurstIsFifo) {
  // A tick cascade: many events at one instant must fire in push order.
  CheckedQueue q;
  for (std::uint64_t i = 0; i < 200; ++i)
    q.push(777, EventType::Timer, i);
  for (std::uint64_t i = 0; i < 200; ++i) {
    const Event e = q.popChecked();
    EXPECT_EQ(e.time, 777);
    EXPECT_EQ(e.payload, i);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueProperty, DrainThenPushBeforeOldCursor) {
  // Drain the queue completely, then push an event far earlier than the
  // last one popped: the emptied queue must keep no stale position.
  CheckedQueue q;
  q.push(100000, EventType::Timer, 1);
  EXPECT_EQ(q.popChecked().payload, 1u);
  EXPECT_TRUE(q.empty());
  q.push(3, EventType::Timer, 2);  // far before the drained cursor
  q.push(100001, EventType::Timer, 3);
  EXPECT_EQ(q.popChecked().payload, 2u);
  EXPECT_EQ(q.popChecked().payload, 3u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueProperty, RepeatedDrainRefillCycles) {
  // Alternate full drains with refills at ever-later times; the stream must
  // match the reference through every cycle.
  CheckedQueue q;
  Rng rng(321);
  Time base = 0;
  for (int cycle = 0; cycle < 30; ++cycle) {
    const auto n = static_cast<int>(rng.uniformInt(1, 40));
    for (int i = 0; i < n; ++i)
      q.push(base + rng.uniformInt(0, 5000), EventType::SuspendDrained,
             static_cast<std::uint64_t>(cycle * 1000 + i));
    q.drainChecked();
    base += rng.uniformInt(0, 200000);
  }
}

}  // namespace
}  // namespace sps::sim
