#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"

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
  while (!q.empty()) q.pop().run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, FifoTieBreakAtSameTime) {
  // Determinism requirement: simultaneous events fire in schedule order.
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.push(TimePoint{100}, [&order, i]() { order.push_back(i); });
  }
  while (!q.empty()) q.pop().run();
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
  q.pop().run();
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
  while (!q.empty()) q.pop().run();
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

TEST(EventQueueTest, RandomOpsMatchOrderedSetModel) {
  // Seeded interleaving of push, ranked push, cancel and pop against a
  // std::set of (time, rank, seq) keys: same pop order, size and next_time
  // after every operation. Narrow time and rank ranges force ties.
  using ModelKey = std::tuple<std::int64_t, std::uint64_t, std::uint64_t>;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    EventQueue q;
    std::set<ModelKey> model;
    std::map<EventId, ModelKey> key_of;
    std::vector<EventId> issued;
    std::uint64_t seq = 0;
    std::uint64_t fired_seq = 0;
    for (int op = 0; op < 20000; ++op) {
      const std::uint64_t r = rng.next_u64() % 100;
      if (r < 45) {
        const auto t = static_cast<std::int64_t>(rng.next_u64() % 64);
        const std::uint64_t rank =
            rng.bernoulli(0.5) ? kDefaultRank : 1 + rng.next_u64() % 4;
        const std::uint64_t s = ++seq;
        const EventId id =
            q.push(TimePoint{t}, rank, [&fired_seq, s]() { fired_seq = s; });
        ASSERT_NE(id, kInvalidEvent);
        model.emplace(t, rank, s);
        key_of[id] = ModelKey{t, rank, s};
        issued.push_back(id);
      } else if (r < 70 && !issued.empty()) {
        // Any handle ever issued: pending, fired or already cancelled.
        const EventId id = issued[rng.next_u64() % issued.size()];
        const auto it = key_of.find(id);
        const bool pending = it != key_of.end() && model.count(it->second);
        ASSERT_EQ(q.cancel(id), pending) << "op " << op;
        if (pending) model.erase(it->second);
      } else if (!model.empty()) {
        const ModelKey expected = *model.begin();
        model.erase(model.begin());
        auto fired = q.pop();
        fired.run();
        ASSERT_EQ(fired.time, TimePoint{std::get<0>(expected)}) << "op " << op;
        ASSERT_EQ(fired_seq, std::get<2>(expected)) << "op " << op;
        ASSERT_EQ(key_of.at(fired.id), expected) << "op " << op;
      }
      ASSERT_EQ(q.size(), model.size()) << "op " << op;
      ASSERT_EQ(q.empty(), model.empty());
      ASSERT_EQ(q.next_time(), model.empty()
                                   ? TimePoint::infinity()
                                   : TimePoint{std::get<0>(*model.begin())});
    }
  }
}

TEST(EventQueueTest, StaleIdDoesNotCancelSlotsNewOccupant) {
  EventQueue q;
  const EventId old_id = q.push(TimePoint{10}, []() {});
  q.pop();
  // The freed slot is reused by the next push, under a new generation.
  bool fired = false;
  const EventId new_id = q.push(TimePoint{20}, [&]() { fired = true; });
  EXPECT_NE(new_id, old_id);
  EXPECT_FALSE(q.cancel(old_id));
  EXPECT_EQ(q.size(), 1u);
  q.pop().run();
  EXPECT_TRUE(fired);

  // Same after a cancel frees the slot.
  const EventId cancelled = q.push(TimePoint{30}, []() {});
  EXPECT_TRUE(q.cancel(cancelled));
  const EventId next = q.push(TimePoint{40}, []() {});
  EXPECT_FALSE(q.cancel(cancelled));
  EXPECT_TRUE(q.cancel(next));
}

TEST(EventQueueTest, NeverIssuedIdsAreRejectedWithSlotsLive) {
  EventQueue q;
  for (int i = 0; i < 8; ++i) q.push(TimePoint{i}, []() {});
  EXPECT_FALSE(q.cancel(9999));
  EXPECT_FALSE(q.cancel((EventId{5} << 32) | 1));  // future generation
  EXPECT_EQ(q.size(), 8u);
}

TEST(EventQueueTest, CancelRootAndLastHeapElement) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 9; ++i) {
    ids.push_back(q.push(TimePoint{10 * (i + 1)},
                         [&order, i]() { order.push_back(i); }));
  }
  EXPECT_TRUE(q.cancel(ids.front()));  // the root
  EXPECT_EQ(q.next_time(), TimePoint{20});
  EXPECT_TRUE(q.cancel(ids.back()));  // pushed in order: the last element
  EXPECT_EQ(q.size(), 7u);
  while (!q.empty()) q.pop().run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventQueueLaneTest, LaneEventsInterleaveWithHeapByKey) {
  EventQueue q;
  std::vector<int> order;
  q.push_lane(0, TimePoint{10}, [&]() { order.push_back(1); });
  q.push(TimePoint{10}, [&]() { order.push_back(2); });
  q.push_lane(1, TimePoint{5}, [&]() { order.push_back(0); });
  q.push_lane(0, TimePoint{10}, [&]() { order.push_back(3); });
  q.push(TimePoint{10}, 1, [&]() { order.push_back(5); });  // ranked: last
  q.push_lane(1, TimePoint{10}, [&]() { order.push_back(4); });
  EXPECT_EQ(q.size(), 6u);
  EXPECT_EQ(q.next_time(), TimePoint{5});
  while (!q.empty()) q.pop().run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(EventQueueLaneTest, CancelHeadMiddleAndTail) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(q.push_lane(0, TimePoint{10 * (i + 1)},
                              [&order, i]() { order.push_back(i); }));
  }
  EXPECT_TRUE(q.cancel(ids[2]));  // middle
  EXPECT_TRUE(q.cancel(ids[0]));  // head: the lane advances to ids[1]
  EXPECT_EQ(q.next_time(), TimePoint{20});
  EXPECT_TRUE(q.cancel(ids[5]));  // tail
  EXPECT_FALSE(q.cancel(ids[2]));
  EXPECT_EQ(q.size(), 3u);
  q.pop().run();
  // The head advance skips the cancelled ids[2].
  EXPECT_EQ(q.next_time(), TimePoint{40});
  while (!q.empty()) q.pop().run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 4}));
  // A drained lane takes new pushes, its FIFO bound kept.
  q.push_lane(0, TimePoint{60}, [&order]() { order.push_back(6); });
  q.pop().run();
  EXPECT_EQ(order.back(), 6);
}

TEST(EventQueueLaneTest, RandomOpsMatchOrderedSetModel) {
  // Seeded interleaving of heap pushes (ranked and unranked), pushes to
  // three timer lanes, cancels and pops against a std::set of
  // (time, rank, seq) keys. As in the simulator, `now` is the last popped
  // time and lane k arms at now + kLaneDelay[k], so each lane is FIFO.
  // Small delays force ties between lanes and heap events.
  using ModelKey = std::tuple<std::int64_t, std::uint64_t, std::uint64_t>;
  constexpr std::array<std::int64_t, 3> kLaneDelay{0, 2, 5};
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    EventQueue q;
    std::set<ModelKey> model;
    std::map<EventId, ModelKey> key_of;
    std::map<EventId, std::uint32_t> lane_of;
    std::array<std::set<ModelKey>, kLaneDelay.size()> lane_model;
    std::vector<EventId> issued;
    std::uint64_t seq = 0;
    std::uint64_t fired_seq = 0;
    std::int64_t now = 0;
    int head_cancels = 0;
    int middle_cancels = 0;
    int stale_cancels = 0;
    for (int op = 0; op < 20000; ++op) {
      const std::uint64_t r = rng.next_u64() % 100;
      if (r < 45) {
        const std::uint64_t s = ++seq;
        auto cb = [&fired_seq, s]() { fired_seq = s; };
        EventId id;
        ModelKey key;
        if (rng.bernoulli(0.4)) {
          const std::int64_t t =
              now + static_cast<std::int64_t>(rng.next_u64() % 8);
          const std::uint64_t rank =
              rng.bernoulli(0.5) ? kDefaultRank : 1 + rng.next_u64() % 4;
          id = q.push(TimePoint{t}, rank, std::move(cb));
          key = ModelKey{t, rank, s};
        } else {
          const auto lane =
              static_cast<std::uint32_t>(rng.next_u64() % kLaneDelay.size());
          const std::int64_t t = now + kLaneDelay[lane];
          id = q.push_lane(lane, TimePoint{t}, std::move(cb));
          key = ModelKey{t, kDefaultRank, s};
          lane_of[id] = lane;
          lane_model[lane].insert(key);
        }
        ASSERT_NE(id, kInvalidEvent);
        model.insert(key);
        key_of[id] = key;
        issued.push_back(id);
      } else if (r < 75 && !issued.empty()) {
        // Any handle ever issued: pending, fired or already cancelled.
        const EventId id = issued[rng.next_u64() % issued.size()];
        const auto it = key_of.find(id);
        const bool pending = it != key_of.end() && model.count(it->second);
        ASSERT_EQ(q.cancel(id), pending) << "op " << op;
        if (!pending) {
          ++stale_cancels;
        } else {
          model.erase(it->second);
          if (const auto lane = lane_of.find(id); lane != lane_of.end()) {
            std::set<ModelKey>& lm = lane_model[lane->second];
            if (*lm.begin() == it->second) {
              ++head_cancels;
            } else {
              ++middle_cancels;
            }
            lm.erase(it->second);
          }
        }
      } else if (!model.empty()) {
        const ModelKey expected = *model.begin();
        model.erase(model.begin());
        for (auto& lm : lane_model) lm.erase(expected);
        auto fired = q.pop();
        fired.run();
        now = std::get<0>(expected);
        ASSERT_EQ(fired.time, TimePoint{now}) << "op " << op;
        ASSERT_EQ(fired_seq, std::get<2>(expected)) << "op " << op;
        ASSERT_EQ(key_of.at(fired.id), expected) << "op " << op;
      }
      ASSERT_EQ(q.size(), model.size()) << "op " << op;
      ASSERT_EQ(q.empty(), model.empty());
      ASSERT_EQ(q.next_time(), model.empty()
                                   ? TimePoint::infinity()
                                   : TimePoint{std::get<0>(*model.begin())});
    }
    EXPECT_GT(head_cancels, 0);
    EXPECT_GT(middle_cancels, 0);
    EXPECT_GT(stale_cancels, 0);
  }
}

TEST(EventQueueLaneDeathTest, OutOfOrderPushAborts) {
  EventQueue q;
  q.push_lane(0, TimePoint{10}, []() {});
  q.push_lane(1, TimePoint{5}, []() {});  // another lane: its own bound
  EXPECT_DEATH(q.push_lane(0, TimePoint{9}, []() {}), "out of order");
}

TEST(EventQueueRescheduleTest, MovesEventKeepingIdAndCallback) {
  EventQueue q;
  std::vector<int> order;
  const EventId a = q.push(TimePoint{10}, [&order]() { order.push_back(0); });
  q.push(TimePoint{20}, [&order]() { order.push_back(1); });
  EXPECT_TRUE(q.reschedule(a, TimePoint{30}));  // later: sifts down
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.next_time(), TimePoint{20});
  q.pop().run();
  auto fired = q.pop();
  EXPECT_EQ(fired.time, TimePoint{30});
  EXPECT_EQ(fired.id, a);
  fired.run();
  EXPECT_EQ(order, (std::vector<int>{1, 0}));
}

TEST(EventQueueRescheduleTest, SameTimeTakesAFreshSequenceNumber) {
  // Re-keying to an unchanged time still moves the event behind every
  // equal-time event pushed since, as cancel followed by push would.
  EventQueue q;
  std::vector<int> order;
  const EventId a = q.push(TimePoint{10}, [&order]() { order.push_back(0); });
  q.push(TimePoint{10}, [&order]() { order.push_back(1); });
  q.push(TimePoint{5}, [&order]() { order.push_back(2); });
  EXPECT_TRUE(q.reschedule(a, TimePoint{10}));
  const EventId c = q.push(TimePoint{10}, 3, [&order]() { order.push_back(3); });
  EXPECT_TRUE(q.reschedule(c, TimePoint{1}));  // earlier: sifts up, keeps rank
  while (!q.empty()) q.pop().run();
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1, 0}));
}

TEST(EventQueueRescheduleTest, StaleIdsAreRejected) {
  EventQueue q;
  const EventId fired = q.push(TimePoint{1}, []() {});
  q.pop();
  const EventId cancelled = q.push(TimePoint{2}, []() {});
  EXPECT_TRUE(q.cancel(cancelled));
  for (int i = 0; i < 8; ++i) q.push(TimePoint{10 + i}, []() {});
  ASSERT_EQ(q.size(), 8u);
  for (const EventId id :
       {fired, cancelled, kInvalidEvent, EventId{9999},
        (EventId{5} << 32) | 1}) {  // a future generation of a live slot
    EXPECT_FALSE(q.reschedule(id, TimePoint{3})) << id;
    EXPECT_EQ(q.size(), 8u);
    EXPECT_EQ(q.next_time(), TimePoint{10});
  }
}

TEST(EventQueueRescheduleTest, RandomOpsMatchCancelAndPush) {
  // Seeded interleaving of push, ranked push, lane push, cancel, reschedule
  // and pop applied to two queues: `q` re-keys in place, `ref` cancels and
  // pushes anew with the same rank. Both must pop the same events at the
  // same times in the same order. As in the simulator, `now` is the last
  // popped time; coarse times make ties common.
  constexpr std::array<std::int64_t, 2> kLaneDelay{0, 3};
  struct Event {
    EventId id;
    EventId ref_id;
    std::uint64_t rank;
    bool lane;
  };
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    EventQueue q;
    EventQueue ref;
    std::vector<Event> events;
    int fired = -1;
    int ref_fired = -1;
    std::int64_t now = 0;
    int rescheduled = 0;
    int stale_reschedules = 0;
    auto on_q = [&fired](int e) {
      return [&fired, e]() { fired = e; };
    };
    auto on_ref = [&ref_fired](int e) {
      return [&ref_fired, e]() { ref_fired = e; };
    };
    for (int op = 0; op < 20000; ++op) {
      const std::uint64_t r = rng.next_u64() % 100;
      const int next = static_cast<int>(events.size());
      if (r < 25) {
        const TimePoint t{now + static_cast<std::int64_t>(rng.next_u64() % 4)};
        const std::uint64_t rank =
            rng.bernoulli(0.6) ? kDefaultRank : 1 + rng.next_u64() % 3;
        events.push_back({q.push(t, rank, on_q(next)),
                          ref.push(t, rank, on_ref(next)), rank, false});
      } else if (r < 40) {
        const auto lane =
            static_cast<std::uint32_t>(rng.next_u64() % kLaneDelay.size());
        const TimePoint t{now + kLaneDelay[lane]};
        events.push_back({q.push_lane(lane, t, on_q(next)),
                          ref.push_lane(lane, t, on_ref(next)), kDefaultRank,
                          true});
      } else if (r < 50 && !events.empty()) {
        // Any event ever issued: pending, fired or already cancelled.
        const Event& e = events[rng.next_u64() % events.size()];
        ASSERT_EQ(q.cancel(e.id), ref.cancel(e.ref_id)) << "op " << op;
      } else if (r < 75 && !events.empty()) {
        const std::size_t i = rng.next_u64() % events.size();
        Event& e = events[i];
        if (e.lane) continue;
        const TimePoint t{now + static_cast<std::int64_t>(rng.next_u64() % 4)};
        const std::size_t size = q.size();
        const bool moved = q.reschedule(e.id, t);
        ASSERT_EQ(moved, ref.cancel(e.ref_id)) << "op " << op;
        if (moved) {
          ++rescheduled;
          e.ref_id = ref.push(t, e.rank, on_ref(static_cast<int>(i)));
        } else {
          ++stale_reschedules;
        }
        ASSERT_EQ(q.size(), size) << "op " << op;
      } else if (!ref.empty()) {
        ASSERT_FALSE(q.empty()) << "op " << op;
        auto a = q.pop();
        auto b = ref.pop();
        a.run();
        b.run();
        ASSERT_EQ(a.time, b.time) << "op " << op;
        ASSERT_EQ(fired, ref_fired) << "op " << op;
        ASSERT_EQ(a.id, events[static_cast<std::size_t>(fired)].id);
        now = a.time.ns();
      }
      ASSERT_EQ(q.size(), ref.size()) << "op " << op;
      ASSERT_EQ(q.next_time(), ref.next_time()) << "op " << op;
    }
    while (!ref.empty()) {
      ASSERT_FALSE(q.empty());
      q.pop().run();
      ref.pop().run();
      ASSERT_EQ(fired, ref_fired);
    }
    EXPECT_TRUE(q.empty());
    EXPECT_GT(rescheduled, 500);
    EXPECT_GT(stale_reschedules, 100);
  }
}

TEST(EventQueueRescheduleDeathTest, LaneEventAborts) {
  EventQueue q;
  const EventId head = q.push_lane(0, TimePoint{10}, []() {});
  const EventId behind = q.push_lane(0, TimePoint{20}, []() {});
  EXPECT_DEATH(q.reschedule(head, TimePoint{30}), "timer-lane event");
  EXPECT_DEATH(q.reschedule(behind, TimePoint{30}), "timer-lane event");
}

// Counts destructions of the one instance that was never moved from.
struct DestroyCounter {
  int* destroyed;
  bool live = true;
  explicit DestroyCounter(int* d) : destroyed(d) {}
  DestroyCounter(DestroyCounter&& other) noexcept
      : destroyed(other.destroyed), live(other.live) {
    other.live = false;
  }
  DestroyCounter(const DestroyCounter&) = delete;
  DestroyCounter& operator=(const DestroyCounter&) = delete;
  DestroyCounter& operator=(DestroyCounter&&) = delete;
  ~DestroyCounter() {
    if (live) ++*destroyed;
  }
};

TEST(EventQueueCallbackTest, MoveOnlyCaptureIsAccepted) {
  EventQueue q;
  auto value = std::make_unique<int>(42);
  int seen = 0;
  q.push(TimePoint{1}, [v = std::move(value), &seen]() { seen = *v; });
  q.pop().run();
  EXPECT_EQ(seen, 42);
}

TEST(EventQueueCallbackTest, CaptureDestroyedExactlyOnce) {
  int fired_destroyed = 0;
  int cancelled_destroyed = 0;
  int pending_destroyed = 0;
  {
    EventQueue q;
    q.push(TimePoint{1}, [c = DestroyCounter(&fired_destroyed)]() {});
    const EventId id =
        q.push(TimePoint{2}, [c = DestroyCounter(&cancelled_destroyed)]() {});
    q.push(TimePoint{3}, [c = DestroyCounter(&pending_destroyed)]() {});
    // Fill the first chunk and start another.
    for (int i = 0; i < 300; ++i) q.push(TimePoint{100 + i}, []() {});
    q.pop().run();
    EXPECT_EQ(fired_destroyed, 1);
    EXPECT_TRUE(q.cancel(id));
    EXPECT_EQ(cancelled_destroyed, 1);
    EXPECT_EQ(pending_destroyed, 0);
  }
  EXPECT_EQ(fired_destroyed, 1);
  EXPECT_EQ(cancelled_destroyed, 1);
  EXPECT_EQ(pending_destroyed, 1);
}

TEST(EventQueueCallbackTest, CallbackMayPushWhileRunning) {
  // The callback runs in its slot. Its pushes fill more than two chunks of
  // slots while it runs, so new chunks are allocated under it; its captures
  // must neither move nor die.
  EventQueue q;
  // Not const: a const std::string capture is not nothrow-movable, so it
  // would not fit in the slot.
  std::string tag(64, 'q');
  std::string seen;
  bool stayed_in_place = false;
  int pushed_ran = 0;
  q.push(TimePoint{1}, [&q, &seen, &stayed_in_place, &pushed_ran, tag]() {
    const std::string* before = &tag;
    for (int i = 0; i < 1000; ++i) {
      q.push(TimePoint{2 + i}, [&pushed_ran]() { ++pushed_ran; });
    }
    stayed_in_place = &tag == before;
    seen = tag;
  });
  q.pop().run();
  EXPECT_TRUE(stayed_in_place);
  EXPECT_EQ(seen, tag);
  EXPECT_EQ(q.size(), 1000u);
  while (!q.empty()) q.pop().run();
  EXPECT_EQ(pushed_ran, 1000);
}

TEST(EventQueueCallbackTest, FiredEventsIdIsStaleWhileItRuns) {
  // pop() kills the id at once; the slot is freed only when the Fired is
  // destroyed, so a push while it lives takes another slot.
  EventQueue q;
  const EventId id = q.push(TimePoint{5}, []() {});
  const EventId other = q.push(TimePoint{9}, []() {});
  {
    auto fired = q.pop();
    EXPECT_EQ(fired.id, id);
    EXPECT_FALSE(q.cancel(id));
    EXPECT_FALSE(q.reschedule(id, TimePoint{7}));
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.next_time(), TimePoint{9});
    const EventId pushed = q.push(TimePoint{8}, []() {});
    EXPECT_NE(static_cast<std::uint32_t>(pushed),
              static_cast<std::uint32_t>(id));  // not the running slot
    fired.run();
  }
  EXPECT_EQ(q.size(), 2u);
  EXPECT_TRUE(q.cancel(other));
}

}  // namespace
}  // namespace sg
