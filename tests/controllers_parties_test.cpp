#include "controllers/parties.hpp"

#include <gtest/gtest.h>

#include "controller_test_util.hpp"

namespace sg {
namespace {

using testutil::ControllerTestbed;

TEST(PartiesTest, UpscalesViolatorFromPool) {
  ControllerTestbed tb;
  PartiesController parties(tb.env(/*expected_exec_us=*/300.0));
  tb.publish(tb.c1(), /*exec_time_us=*/500.0, /*exec_metric_us=*/500.0);
  tb.publish(tb.c2(), 100.0, 100.0);
  const int before = tb.c1().cores();
  parties.tick();
  EXPECT_EQ(tb.c1().cores(), before + 2);  // one physical core (2 logical)
  EXPECT_EQ(tb.c2().cores(), 2);           // calm container untouched
}

TEST(PartiesTest, NoActionWithoutSnapshots) {
  ControllerTestbed tb;
  PartiesController parties(tb.env());
  parties.tick();
  EXPECT_EQ(tb.c1().cores(), 2);
  EXPECT_EQ(tb.c2().cores(), 2);
}

TEST(PartiesTest, ViolationSignalIsTotalExecTime) {
  // Parties cannot tell conn-wait from real slowdown: a container whose
  // latency is pure queue wait still gets the cores (the paper's §III-B
  // mis-attribution).
  ControllerTestbed tb;
  PartiesController parties(tb.env(300.0));
  tb.publish(tb.c1(), /*exec_time_us=*/900.0, /*exec_metric_us=*/150.0);
  tb.publish(tb.c2(), 150.0, 150.0);
  parties.tick();
  EXPECT_EQ(tb.c1().cores(), 4);  // upscaled despite healthy execMetric
  EXPECT_EQ(tb.c2().cores(), 2);  // root cause starved
}

TEST(PartiesTest, AllViolatorsServedWhilePoolLasts) {
  ControllerTestbed tb;
  PartiesController parties(tb.env(300.0));
  tb.publish(tb.c1(), 600.0, 600.0);
  tb.publish(tb.c2(), 500.0, 500.0);
  parties.tick();
  EXPECT_EQ(tb.c1().cores(), 4);
  EXPECT_EQ(tb.c2().cores(), 4);
}

TEST(PartiesTest, StealsFromCalmWhenPoolDry) {
  // node_cores=25 -> app 6, both containers at 2 -> free 2.
  ControllerTestbed tb(8, 2, 25);
  PartiesController parties(tb.env(300.0));
  // First tick drains the pool to c1. (Time advances between ticks so the
  // donor-side busy guard observes c2 idle.)
  tb.sim.run_until(tb.sim.now() + 500 * kMillisecond);
  tb.publish(tb.c1(), 900.0, 900.0);
  tb.publish(tb.c2(), 100.0, 100.0);
  parties.tick();
  EXPECT_EQ(tb.c1().cores(), 4);
  EXPECT_EQ(tb.cluster.node(0).free_cores(), 0);
  // Second tick: pool dry -> steal from the calm, idle c2.
  tb.sim.run_until(tb.sim.now() + 500 * kMillisecond);
  tb.publish(tb.c1(), 900.0, 900.0);
  tb.publish(tb.c2(), 100.0, 100.0);
  parties.tick();
  EXPECT_GT(tb.c1().cores(), 4);
  EXPECT_LT(tb.c2().cores(), 2);
}

TEST(PartiesTest, NeverStealsFromBusyContainer) {
  ControllerTestbed tb(8, 2, 25);
  PartiesController parties(tb.env(300.0));
  // Keep c2's cores measurably busy.
  tb.c2().submit(1e12, []() {});
  tb.c2().submit(1e12, []() {});
  tb.sim.run_until(TimePoint::at(500 * kMillisecond));
  tb.publish(tb.c1(), 900.0, 900.0);
  tb.publish(tb.c2(), 100.0, 100.0);  // low latency but fully busy
  parties.tick();  // drains pool
  tb.sim.run_until(tb.sim.now() + 500 * kMillisecond);
  tb.publish(tb.c1(), 900.0, 900.0);
  tb.publish(tb.c2(), 100.0, 100.0);
  parties.tick();  // would steal — but c2's cores are in use
  EXPECT_EQ(tb.c2().cores(), 2);
}

TEST(PartiesTest, FrequencyRampsOnViolators) {
  ControllerTestbed tb;
  PartiesController parties(tb.env(300.0));
  const FreqMhz f0 = tb.c1().frequency();
  tb.publish(tb.c1(), 600.0, 600.0);
  tb.publish(tb.c2(), 100.0, 100.0);
  parties.tick();
  EXPECT_GT(tb.c1().frequency(), f0);
  EXPECT_EQ(tb.c2().frequency(), f0);
}

TEST(PartiesTest, FrequencyStepsDownWhenCalm) {
  ControllerTestbed tb;
  PartiesController parties(tb.env(300.0));
  tb.c1().set_frequency(3100);
  tb.publish(tb.c1(), 100.0, 100.0);
  parties.tick();
  EXPECT_LT(tb.c1().frequency(), 3100);
}

TEST(PartiesTest, DownscaleNeedsSustainedSlack) {
  ControllerTestbed tb;
  PartiesController parties(tb.env(300.0));
  tb.c1().set_cores(6);
  // One slack interval short of the hold: not enough. (Simulated time
  // advances between ticks so the busy-window revocation guard sees the
  // container idle.)
  for (int i = 0; i < PartiesController::kDownscaleHold - 1; ++i) {
    tb.sim.run_until(tb.sim.now() + 500 * kMillisecond);
    tb.publish(tb.c1(), 100.0, 100.0);
    tb.publish(tb.c2(), 200.0, 200.0);
    parties.tick();
  }
  EXPECT_EQ(tb.c1().cores(), 6);
  // The next interval crosses the hold.
  tb.sim.run_until(tb.sim.now() + 500 * kMillisecond);
  tb.publish(tb.c1(), 100.0, 100.0);
  tb.publish(tb.c2(), 200.0, 200.0);
  parties.tick();
  EXPECT_EQ(tb.c1().cores(), 4);
}

TEST(PartiesTest, SlackStreakResetsOnViolation) {
  ControllerTestbed tb;
  PartiesController parties(tb.env(300.0));
  tb.c1().set_cores(6);
  // Slack intervals one short of the hold on both sides of a violation:
  // together they would cross it, but the violation resets the streak.
  const auto slack_ticks = [&] {
    for (int i = 0; i < PartiesController::kDownscaleHold - 1; ++i) {
      tb.sim.run_until(tb.sim.now() + 500 * kMillisecond);
      tb.publish(tb.c1(), 100.0, 100.0);
      parties.tick();
    }
  };
  slack_ticks();
  tb.publish(tb.c1(), 600.0, 600.0);  // violation resets the streak
  parties.tick();
  const int after_violation = tb.c1().cores();
  // Undo the violation's frequency step so only the streak can block the
  // downscale (a boosted container's slack does not count).
  tb.c1().set_frequency(kDvfs.min_mhz);
  slack_ticks();
  EXPECT_EQ(tb.c1().cores(), after_violation);  // streak broken: no downscale
}

TEST(PartiesTest, StartSchedulesPeriodicTicks) {
  ControllerTestbed tb;
  PartiesController parties(tb.env(300.0));
  parties.start();
  tb.publish(tb.c1(), 900.0, 900.0);
  tb.sim.run_until(TimePoint::at(600 * kMillisecond));
  EXPECT_EQ(tb.c1().cores(), 4);  // first tick at 500ms acted
}

}  // namespace
}  // namespace sg
