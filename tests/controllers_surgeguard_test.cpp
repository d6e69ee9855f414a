// SurgeGuard (paper Fig. 7) is an Escalator plus a FirstResponder on each
// node, built side by side as the experiment harness builds them; and the
// IdealOracle of Fig. 4.
#include <gtest/gtest.h>

#include "controller_test_util.hpp"
#include "controllers/escalator.hpp"
#include "controllers/first_responder.hpp"
#include "controllers/ideal.hpp"

namespace sg {
namespace {

using testutil::ControllerTestbed;

TEST(SurgeGuardTest, ComposesEscalatorAndFirstResponder) {
  ControllerTestbed tb;
  Escalator escalator(tb.env());
  FirstResponder first_responder(tb.env(), tb.network);
  escalator.start();
  first_responder.start();
  // Escalator ticks must act on bus snapshots.
  tb.publish(tb.c1(), 900.0, 900.0);
  tb.sim.run_until(TimePoint::at(150 * kMillisecond));
  EXPECT_GT(tb.c1().cores(), 2);
}

TEST(SurgeGuardTest, FastPathBoostsWithinMicroseconds) {
  ControllerTestbed tb;
  Escalator escalator(tb.env());
  FirstResponder first_responder(tb.env(), tb.network);
  escalator.start();
  first_responder.start();
  tb.network.register_client_receiver([](const RpcPacket&) {});
  tb.sim.run_until(TimePoint::at(1 * kMillisecond));
  RpcPacket p;
  p.request_id = 1;
  p.dst_container = tb.c1().id();
  p.dst_node = 0;
  p.start_time = TimePoint::origin();  // 1ms old: past kSlackMargin x 200us
  tb.network.send(kClientNode, p);
  // Well before the first Escalator tick (100ms), frequency is boosted.
  tb.sim.run_until(tb.sim.now() + 100 * kMicrosecond);
  EXPECT_EQ(tb.c1().frequency(), kDvfs.max_mhz);
  EXPECT_EQ(first_responder.boosts_applied(), 2u);  // c1 and downstream c2
}

TEST(IdealOracleTest, AllocatesAtDetectionTime) {
  ControllerTestbed tb(8, 2, 64);
  IdealOracleController::Options opts;
  // 30k rps x 100us work = 3 cores of demand > the initial 2.
  opts.pattern = SpikePattern::surges(15000, 2.0, 1 * kSecond, 10 * kSecond,
                                      TimePoint::at(1 * kSecond));
  opts.detection_delay = 100 * kMillisecond;
  opts.drain_window = 200 * kMillisecond;
  opts.horizon = 5 * kSecond;
  IdealOracleController oracle(tb.env(), opts);
  oracle.start();
  tb.sim.run_until(TimePoint::at(1 * kSecond + 50 * kMillisecond));
  EXPECT_EQ(tb.c1().cores(), 2);  // before detection
  tb.sim.run_until(TimePoint::at(1 * kSecond + 150 * kMillisecond));
  EXPECT_GT(tb.c1().cores(), 2);  // after detection: sized for the surge
}

TEST(IdealOracleTest, RestoresAfterDrain) {
  ControllerTestbed tb(8, 2, 64);
  IdealOracleController::Options opts;
  opts.pattern = SpikePattern::surges(5000, 2.0, 1 * kSecond, 10 * kSecond,
                                      TimePoint::at(1 * kSecond));
  opts.detection_delay = 100 * kMillisecond;
  opts.drain_window = 200 * kMillisecond;
  opts.horizon = 5 * kSecond;
  IdealOracleController oracle(tb.env(), opts);
  oracle.start();
  // Surge end + drain.
  tb.sim.run_until(TimePoint::at(2 * kSecond + 300 * kMillisecond));
  EXPECT_EQ(tb.c1().cores(), 2);
  EXPECT_EQ(tb.c2().cores(), 2);
}

TEST(IdealOracleTest, LongerDelayNeedsMoreCores) {
  // The Fig. 4 relationship: a slower detection accumulates more backlog
  // and therefore requires more cores to drain in the same window.
  auto peak_cores = [](Duration delay) {
    ControllerTestbed tb(8, 2, 64);
    IdealOracleController::Options opts;
    opts.pattern =
        SpikePattern::surges(15000, 2.0, 1 * kSecond, 10 * kSecond,
                             TimePoint::at(1 * kSecond));
    opts.detection_delay = delay;
    opts.drain_window = 200 * kMillisecond;
    opts.horizon = 3 * kSecond;
    IdealOracleController oracle(tb.env(), opts);
    oracle.start();
    tb.sim.run_until(TimePoint::at(1 * kSecond + delay + 10 * kMillisecond));
    return tb.c1().cores();
  };
  EXPECT_GE(peak_cores(500 * kMillisecond), peak_cores(1 * kMillisecond));
}

}  // namespace
}  // namespace sg
