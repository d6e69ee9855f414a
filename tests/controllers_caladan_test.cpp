#include "controllers/caladan.hpp"

#include <gtest/gtest.h>

#include "controller_test_util.hpp"

namespace sg {
namespace {

using testutil::ControllerTestbed;

TEST(CaladanTest, UpscalesOnQueueBuildup) {
  ControllerTestbed tb;
  CaladanAlgo caladan(tb.env());
  // queueBuildup = 600/200 = 3.0 at c1.
  tb.publish(tb.c1(), 600.0, 200.0);
  tb.publish(tb.c2(), 100.0, 100.0);
  caladan.tick();
  EXPECT_GT(tb.c1().cores(), 2);
}

TEST(CaladanTest, TargetsQueueHolderNotRootCause) {
  // The paper's point: Caladan feeds the container HOLDING the queue (c1),
  // not the downstream container causing it (c2).
  ControllerTestbed tb;
  CaladanAlgo caladan(tb.env());
  tb.publish(tb.c1(), 600.0, 200.0);  // implicit queue at c1
  tb.publish(tb.c2(), 150.0, 150.0);  // c2 looks fine (fixed pool hides it)
  caladan.tick();
  EXPECT_GT(tb.c1().cores(), 2);
  EXPECT_EQ(tb.c2().cores(), 2);
}

TEST(CaladanTest, BlindToConnectionPerRequestOverload) {
  // With queueBuildup ~ 1 (no pools), Caladan never upscales, no matter how
  // slow the containers are — the paper's hotelReservation failure.
  ControllerTestbed tb(-1);
  CaladanAlgo caladan(tb.env());
  tb.publish(tb.c1(), 5000.0, 5000.0);  // 16x over target but qb = 1.0
  tb.publish(tb.c2(), 5000.0, 5000.0);
  caladan.tick();
  EXPECT_EQ(tb.c1().cores(), 2);
  EXPECT_EQ(tb.c2().cores(), 2);
}

TEST(CaladanTest, ReclaimsIdleCores) {
  ControllerTestbed tb;
  CaladanAlgo caladan(tb.env());
  tb.c1().set_cores(6);
  // First tick establishes the busy baseline (conservative: assumes busy).
  tb.sim.run_until(TimePoint::at(CaladanAlgo::kInterval));
  tb.publish(tb.c1(), 100.0, 100.0);
  tb.publish(tb.c2(), 100.0, 100.0);
  caladan.tick();
  const int after_first = tb.c1().cores();
  // Advance sim time with the container fully idle, then tick again.
  tb.sim.run_until(tb.sim.now() + 100 * kMillisecond);
  tb.publish(tb.c1(), 100.0, 100.0);
  tb.publish(tb.c2(), 100.0, 100.0);
  caladan.tick();
  EXPECT_LT(tb.c1().cores(), after_first);
}

TEST(CaladanTest, DoesNotReclaimBusyCores) {
  ControllerTestbed tb;
  CaladanAlgo caladan(tb.env());
  // Keep c1 busy: one long-running job per core.
  tb.c1().submit(1e12, []() {});
  tb.c1().submit(1e12, []() {});
  tb.publish(tb.c1(), 100.0, 100.0);
  caladan.tick();
  tb.sim.run_until(tb.sim.now() + 100 * kMillisecond);
  tb.publish(tb.c1(), 100.0, 100.0);
  caladan.tick();
  EXPECT_EQ(tb.c1().cores(), 2);
}

TEST(CaladanTest, WorstQueueServedFirstUnderScarcity) {
  // node 25 -> app 6 cores, 2+2 allocated, 2 free; kGrantStep = 2 means
  // only one container can be served.
  ControllerTestbed tb(8, 2, 25);
  CaladanAlgo caladan(tb.env());
  tb.publish(tb.c1(), 600.0, 200.0);  // qb 3.0
  tb.publish(tb.c2(), 900.0, 100.0);  // qb 9.0 -> served first
  caladan.tick();
  EXPECT_EQ(tb.c2().cores(), 4);
  EXPECT_EQ(tb.c1().cores(), 2);
}

TEST(CaladanTest, StartSchedulesTicks) {
  ControllerTestbed tb;
  CaladanAlgo caladan(tb.env());
  caladan.start();
  tb.publish(tb.c1(), 600.0, 200.0);
  tb.sim.run_until(TimePoint::at(CaladanAlgo::kInterval + 10 * kMillisecond));
  EXPECT_GT(tb.c1().cores(), 2);
}

}  // namespace
}  // namespace sg
