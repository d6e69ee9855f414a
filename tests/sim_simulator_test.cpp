#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace sg {
namespace {

TEST(SimulatorTest, ClockStartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), TimePoint{0});
  EXPECT_EQ(sim.events_processed(), 0u);
}

TEST(SimulatorTest, ScheduleAfterAdvancesClock) {
  Simulator sim;
  TimePoint seen = TimePoint::infinity();  // sentinel: callback never ran
  sim.schedule_after(Duration{100}, [&]() { seen = sim.now(); });
  sim.run_to_completion();
  EXPECT_EQ(seen, TimePoint{100});
  EXPECT_EQ(sim.now(), TimePoint{100});
}

TEST(SimulatorTest, ScheduleAtAbsolute) {
  Simulator sim;
  std::vector<std::int64_t> seen;
  sim.schedule_at(TimePoint{50}, [&]() { seen.push_back(sim.now().ns()); });
  sim.schedule_at(TimePoint{25}, [&]() { seen.push_back(sim.now().ns()); });
  sim.run_to_completion();
  EXPECT_EQ(seen, (std::vector<std::int64_t>{25, 50}));
}

TEST(SimulatorTest, PastTimesClampToNow) {
  Simulator sim;
  sim.schedule_at(TimePoint{100}, []() {});
  sim.run_to_completion();
  TimePoint seen = TimePoint::infinity();  // sentinel: callback never ran
  // In the past.
  sim.schedule_at(TimePoint{10}, [&]() { seen = sim.now(); });
  sim.run_to_completion();
  EXPECT_EQ(seen, TimePoint{100});

  // Negative delay.
  sim.schedule_after(Duration{-5}, [&]() { seen = sim.now(); });
  sim.run_to_completion();
  EXPECT_EQ(seen, TimePoint{100});
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(TimePoint{10}, [&]() { ++fired; });
  sim.schedule_at(TimePoint{20}, [&]() { ++fired; });
  sim.schedule_at(TimePoint{30}, [&]() { ++fired; });
  sim.run_until(TimePoint{20});
  EXPECT_EQ(fired, 2);          // events at t<=20 fire
  // The clock lands exactly on the boundary.
  EXPECT_EQ(sim.now(), TimePoint{20});
  sim.run_until(TimePoint{35});
  EXPECT_EQ(fired, 3);
  // The clock reaches the end even after the queue drains.
  EXPECT_EQ(sim.now(), TimePoint{35});
}

TEST(SimulatorTest, RunUntilWithEmptyQueueAdvancesClock) {
  Simulator sim;
  sim.run_until(TimePoint{1000});
  EXPECT_EQ(sim.now(), TimePoint{1000});
}

TEST(SimulatorTest, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.step());
  sim.schedule_after(Duration{1}, []() {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(SimulatorTest, HandlersCanScheduleMore) {
  Simulator sim;
  std::vector<std::int64_t> seen;
  sim.schedule_after(Duration{10}, [&]() {
    seen.push_back(sim.now().ns());
    sim.schedule_after(Duration{5}, [&]() { seen.push_back(sim.now().ns()); });
  });
  sim.run_to_completion();
  EXPECT_EQ(seen, (std::vector<std::int64_t>{10, 15}));
}

TEST(SimulatorTest, CancelScheduledEvent) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_after(Duration{10}, [&]() { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run_to_completion();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, ScheduleTimerNegativeDelayClampsToNow) {
  Simulator sim;
  sim.schedule_at(TimePoint{100}, []() {});
  sim.run_to_completion();
  TimePoint seen = TimePoint::infinity();  // sentinel: callback never ran
  sim.schedule_timer(Duration{-5}, [&]() { seen = sim.now(); });
  sim.run_to_completion();
  EXPECT_EQ(seen, TimePoint{100});
  // The clamped delay is zero, so a zero-delay timer shares its lane.
  sim.schedule_timer(Duration::zero(), []() {});
  EXPECT_EQ(sim.timer_lanes(), 1u);
}

TEST(SimulatorTest, RescheduleAfterMovesEventRelativeToNow) {
  Simulator sim;
  std::vector<TimePoint> seen;
  const EventId id =
      sim.schedule_after(Duration{50}, [&]() { seen.push_back(sim.now()); });
  sim.schedule_at(TimePoint{100}, [&, id]() {
    // Already fired: nothing to move.
    EXPECT_FALSE(sim.reschedule_after(id, Duration{10}));
  });
  const EventId late =
      sim.schedule_after(Duration{500}, [&]() { seen.push_back(sim.now()); });
  sim.run_until(TimePoint{200});
  EXPECT_TRUE(sim.reschedule_after(late, Duration{-5}));  // clamps to now
  sim.run_to_completion();
  EXPECT_EQ(seen, (std::vector<TimePoint>{TimePoint{50}, TimePoint{200}}));
  EXPECT_EQ(sim.events_pending(), 0u);
}

TEST(SimulatorTest, ScheduleTimerGivesEachDistinctDelayOneLane) {
  Simulator sim;
  std::string order;
  sim.schedule_timer(Duration{10}, [&]() { order += 'a'; });
  sim.schedule_timer(Duration{100}, [&]() { order += 'd'; });
  sim.schedule_timer(Duration{10}, [&]() { order += 'b'; });
  // Shorter than the lanes above: a lane shared with them would be out of
  // order and abort.
  sim.schedule_timer(Duration{5}, [&]() { order += '_'; });
  EXPECT_EQ(sim.timer_lanes(), 3u);
  sim.run_until(TimePoint{7});
  sim.schedule_timer(Duration{3}, [&]() { order += 'c'; });  // fires at 10
  EXPECT_EQ(sim.timer_lanes(), 4u);
  EXPECT_EQ(sim.events_pending(), 4u);
  sim.run_to_completion();
  EXPECT_EQ(order, "_abcd");
  EXPECT_EQ(sim.now(), TimePoint{100});
}

TEST(SimulatorTest, TimerAndScheduleAfterAtSameInstantFireInArmingOrder) {
  Simulator sim;
  std::string order;
  sim.schedule_after(Duration{10}, [&]() { order += 'a'; });
  sim.schedule_timer(Duration{10}, [&]() { order += 'b'; });
  sim.schedule_at(TimePoint{10}, [&]() { order += 'c'; });
  sim.schedule_timer(Duration{10}, [&]() { order += 'd'; });
  sim.schedule_after(Duration{10}, [&]() { order += 'e'; });
  sim.run_to_completion();
  EXPECT_EQ(order, "abcde");
}

TEST(SimulatorTest, CancelledLaneHeadLetsNextTimerFireOnTime) {
  Simulator sim;
  std::vector<std::int64_t> fired_at;
  const EventId head = sim.schedule_timer(
      Duration{100}, [&]() { fired_at.push_back(-sim.now().ns()); });
  sim.schedule_at(TimePoint{30}, [&]() {
    sim.schedule_timer(Duration{100},
                       [&]() { fired_at.push_back(sim.now().ns()); });
  });
  sim.run_until(TimePoint{50});
  EXPECT_TRUE(sim.cancel(head));
  EXPECT_FALSE(sim.cancel(head));
  sim.run_to_completion();
  EXPECT_EQ(fired_at, (std::vector<std::int64_t>{130}));
  EXPECT_EQ(sim.now(), TimePoint{130});
}

TEST(SimulatorTest, EventsProcessedCounter) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule_after(Duration{i}, []() {});
  sim.run_to_completion();
  EXPECT_EQ(sim.events_processed(), 5u);
}

TEST(SimulatorTest, PeriodicRunsUntilFalse) {
  Simulator sim;
  int ticks = 0;
  sim.schedule_periodic(TimePoint{100}, Duration{50}, [&]() {
    ++ticks;
    return ticks < 4;
  });
  sim.run_to_completion();
  EXPECT_EQ(ticks, 4);
  EXPECT_EQ(sim.now(), TimePoint{100 + 3 * 50});
}

TEST(SimulatorTest, PeriodicFirstFiringAtStart) {
  Simulator sim;
  std::vector<std::int64_t> at;
  sim.schedule_periodic(TimePoint{30}, Duration{10}, [&]() {
    at.push_back(sim.now().ns());
    return at.size() < 3;
  });
  sim.run_to_completion();
  EXPECT_EQ(at, (std::vector<std::int64_t>{30, 40, 50}));
}

TEST(SimulatorTest, PeriodicStopsWithPendingQueueDestruction) {
  // A periodic that never returns false must not leak or crash when the
  // simulator is destroyed with its next event pending.
  auto sim = std::make_unique<Simulator>();
  int ticks = 0;
  sim->schedule_periodic(TimePoint::origin(), Duration{10}, [&]() {
    ++ticks;
    return true;
  });
  sim->run_until(TimePoint{100});
  EXPECT_EQ(ticks, 11);
  sim.reset();  // destruction with a live periodic event
}

TEST(SimulatorTest, RngIsSeedDeterministic) {
  Simulator a(123), b(123);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(a.rng().next_u64(), b.rng().next_u64());
}

TEST(SimulatorTest, TickGateVetoStallsAndChainResumes) {
  Simulator sim;
  // Controller ticks are vetoed in [30, 60); default-class ticks never are.
  sim.set_tick_gate([&](Simulator::TickClass c) {
    return c != Simulator::TickClass::kController ||
           sim.now() < TimePoint{30} || sim.now() >= TimePoint{60};
  });
  std::vector<std::int64_t> controller;
  std::vector<std::int64_t> other;
  sim.schedule_periodic(
      TimePoint{0}, Duration{10},
      [&]() {
        controller.push_back(sim.now().ns());
        return true;
      },
      Simulator::TickClass::kController);
  sim.schedule_periodic(TimePoint{0}, Duration{10}, [&]() {
    other.push_back(sim.now().ns());
    return true;
  });
  sim.run_until(TimePoint{90});
  EXPECT_EQ(controller, (std::vector<std::int64_t>{0, 10, 20, 60, 70, 80, 90}));
  EXPECT_EQ(other.size(), 10u);
  EXPECT_EQ(sim.ticks_stalled(), 3u);

  sim.set_tick_gate(nullptr);
  sim.run_until(TimePoint{100});
  EXPECT_EQ(controller.back(), 100);
  EXPECT_EQ(sim.ticks_stalled(), 3u);
}

TEST(SimulatorTest, EventScheduledByTickAtNextPeriodFiresFirst) {
  // The next tick is pushed after fn returns, so an event fn schedules for
  // the same instant has the lower sequence number and runs first.
  Simulator sim;
  std::string order;
  sim.schedule_periodic(TimePoint{0}, Duration{10}, [&]() {
    order += 't';
    sim.schedule_after(Duration{10}, [&]() { order += 'e'; });
    return order.size() < 5;
  });
  sim.run_to_completion();
  EXPECT_EQ(order, "tetete");
}

TEST(SimulatorTest, RunningEventCannotCancelOrMoveItself) {
  Simulator sim;
  EventId self = kInvalidEvent;
  int ran = 0;
  self = sim.schedule_after(Duration{10}, [&]() {
    ++ran;
    EXPECT_FALSE(sim.cancel(self));
    EXPECT_FALSE(sim.reschedule_after(self, Duration{5}));
    EXPECT_EQ(sim.events_pending(), 1u);
  });
  sim.schedule_after(Duration{20}, []() {});
  sim.run_to_completion();
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.events_processed(), 2u);
  EXPECT_EQ(sim.now(), TimePoint{20});
}

TEST(SimulatorTest, PeriodicChainsShareATimerLanePerPeriod) {
  // Chains A and B tick every 10, C every 15: two timer lanes. At one
  // instant events run in push order, lanes or not: 'x' was pushed at set-up
  // and runs before the t=10 ticks; 'a', which A's fn schedules for its
  // next tick's instant, runs before that tick, whose re-arm is pushed
  // after fn returns; C's tick at 20 was armed at 5, before all of them.
  Simulator sim;
  std::string order;
  sim.schedule_periodic(TimePoint{0}, Duration{10}, [&]() {
    order += 'A';
    sim.schedule_after(Duration{10}, [&]() { order += 'a'; });
    return sim.now() < TimePoint{20};
  });
  sim.schedule_periodic(TimePoint{0}, Duration{10}, [&]() {
    order += 'B';
    return sim.now() < TimePoint{20};
  });
  sim.schedule_periodic(TimePoint{5}, Duration{15}, [&]() {
    order += 'C';
    return sim.now() < TimePoint{20};
  });
  sim.schedule_at(TimePoint{10}, [&]() { order += 'x'; });
  sim.run_until(TimePoint{5});
  EXPECT_EQ(sim.timer_lanes(), 2u);
  sim.run_to_completion();
  EXPECT_EQ(order, "ABCxaABCaABa");
  EXPECT_EQ(sim.timer_lanes(), 2u);
  EXPECT_EQ(sim.now(), TimePoint{30});
}

TEST(SimulatorTest, PeriodicMayRegisterChainsWhileRunning) {
  Simulator sim;
  int outer = 0;
  int inner = 0;
  sim.schedule_periodic(TimePoint{0}, Duration{10}, [&]() {
    // Registering grows the chain store under the running tick.
    for (int i = 0; i < 64; ++i) {
      sim.schedule_periodic(sim.now(), Duration{10}, [&]() {
        ++inner;
        return false;
      });
    }
    return ++outer < 3;
  });
  sim.run_to_completion();
  EXPECT_EQ(outer, 3);
  EXPECT_EQ(inner, 3 * 64);
}

}  // namespace
}  // namespace sg
