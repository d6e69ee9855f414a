#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace sg {
namespace {

TEST(EventQueueTest, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.next_time(), TimePoint::infinity());
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(TimePoint{30}, [&]() { order.push_back(3); });
  q.push(TimePoint{10}, [&]() { order.push_back(1); });
  q.push(TimePoint{20}, [&]() { order.push_back(2); });
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, FifoTieBreakAtSameTime) {
  // Determinism requirement: simultaneous events fire in schedule order.
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.push(TimePoint{100}, [&order, i]() { order.push_back(i); });
  }
  while (!q.empty()) q.pop().cb();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueueTest, NextTimeTracksEarliest) {
  EventQueue q;
  q.push(TimePoint{50}, []() {});
  q.push(TimePoint{20}, []() {});
  EXPECT_EQ(q.next_time(), TimePoint{20});
  q.pop();
  EXPECT_EQ(q.next_time(), TimePoint{50});
}

TEST(EventQueueTest, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.push(TimePoint{10}, [&]() { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), TimePoint::infinity());
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, CancelIsIdempotent) {
  EventQueue q;
  const EventId id = q.push(TimePoint{10}, []() {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueueTest, CancelFiredEventIsNoop) {
  EventQueue q;
  const EventId id = q.push(TimePoint{10}, []() {});
  q.pop().cb();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueueTest, CancelInvalidAndUnknownIds) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(kInvalidEvent));
  EXPECT_FALSE(q.cancel(9999));  // never issued
}

TEST(EventQueueTest, CancelMiddleKeepsOthers) {
  EventQueue q;
  std::vector<int> order;
  q.push(TimePoint{10}, [&]() { order.push_back(1); });
  const EventId mid = q.push(TimePoint{20}, [&]() { order.push_back(2); });
  q.push(TimePoint{30}, [&]() { order.push_back(3); });
  q.cancel(mid);
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueueTest, SizeCountsLiveOnly) {
  EventQueue q;
  const EventId a = q.push(TimePoint{1}, []() {});
  q.push(TimePoint{2}, []() {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueTest, PopReturnsTimeAndId) {
  EventQueue q;
  const EventId id = q.push(TimePoint{42}, []() {});
  auto fired = q.pop();
  EXPECT_EQ(fired.time, TimePoint{42});
  EXPECT_EQ(fired.id, id);
}

TEST(EventQueueTest, ManyEventsStressOrder) {
  EventQueue q;
  // Insert times in a scrambled but reproducible pattern.
  for (int i = 0; i < 1000; ++i) {
    q.push(TimePoint{(i * 7919) % 1000}, []() {});
  }
  TimePoint prev;  // event times are non-negative
  while (!q.empty()) {
    auto fired = q.pop();
    EXPECT_GE(fired.time, prev);
    prev = fired.time;
  }
}

}  // namespace
}  // namespace sg
