#include "controllers/first_responder.hpp"

#include <gtest/gtest.h>

#include "controller_test_util.hpp"

namespace sg {
namespace {

using testutil::ControllerTestbed;

// The testbed's expectedTimeFromStart is 200us, so slack turns negative
// past kSlackMargin x 200us; a packet this old is late.
constexpr Duration kThreshold = FirstResponder::kSlackMargin * Duration::us(200);
constexpr Duration kLate = kThreshold + 100 * kMicrosecond;

RpcPacket request_to(ControllerTestbed& tb, Container& c, TimePoint start) {
  RpcPacket p;
  p.request_id = 1;
  p.dst_container = c.id();
  p.dst_node = c.node();
  p.start_time = start;
  (void)tb;
  return p;
}

TEST(FirstResponderTest, PositiveSlackNoBoost) {
  ControllerTestbed tb;
  FirstResponder fr(tb.env(), tb.network);
  fr.start();
  tb.sim.run_until(TimePoint::at(100 * kMicrosecond));
  // Observed 100us, well inside the threshold.
  fr.on_packet(request_to(tb, tb.c1(), TimePoint::origin()));
  tb.sim.run_to_completion();
  EXPECT_EQ(fr.violations_detected(), 0u);
  EXPECT_EQ(fr.boosts_applied(), 0u);
  EXPECT_EQ(tb.c1().frequency(), kDvfs.min_mhz);
}

TEST(FirstResponderTest, NegativeSlackBoostsToMax) {
  ControllerTestbed tb;
  FirstResponder fr(tb.env(), tb.network);
  fr.start();
  tb.sim.run_until(TimePoint::at(kLate));
  fr.on_packet(request_to(tb, tb.c1(), TimePoint::origin()));
  tb.sim.run_to_completion();
  EXPECT_EQ(fr.violations_detected(), 1u);
  EXPECT_EQ(tb.c1().frequency(), kDvfs.max_mhz);
}

TEST(FirstResponderTest, BoostsSameNodeDownstreamToo) {
  ControllerTestbed tb;
  FirstResponder fr(tb.env(), tb.network);
  fr.start();
  tb.sim.run_until(TimePoint::at(kLate));
  fr.on_packet(request_to(tb, tb.c1(), TimePoint::origin()));
  tb.sim.run_to_completion();
  // c2 is downstream of c1 on the same node.
  EXPECT_EQ(tb.c2().frequency(), kDvfs.max_mhz);
  EXPECT_EQ(fr.boosts_applied(), 2u);
}

TEST(FirstResponderTest, UpdateAppliesAfterWorkerLatency) {
  // Coordinator-worker design (Fig. 9): the boost is NOT synchronous.
  ControllerTestbed tb;
  FirstResponder fr(tb.env(), tb.network);
  fr.start();
  tb.sim.run_until(TimePoint::at(kLate));
  fr.on_packet(request_to(tb, tb.c1(), TimePoint::origin()));
  tb.sim.run_until(tb.sim.now() + FirstResponder::kUpdateLatency -
                   Duration::ns(1));
  EXPECT_EQ(tb.c1().frequency(), kDvfs.min_mhz);  // not yet
  tb.sim.run_until(tb.sim.now() + Duration::ns(1));
  EXPECT_EQ(tb.c1().frequency(), kDvfs.max_mhz);  // after 2.54us
}

TEST(FirstResponderTest, FreezeWindowLimitsUpdates) {
  ControllerTestbed tb;
  FirstResponder fr(tb.env(), tb.network);  // freeze 2 x 500us e2e
  fr.start();
  tb.sim.run_until(TimePoint::at(kLate));
  fr.on_packet(request_to(tb, tb.c1(), TimePoint::origin()));
  fr.on_packet(request_to(tb, tb.c1(), TimePoint::origin()));
  fr.on_packet(request_to(tb, tb.c1(), TimePoint::origin()));
  tb.sim.run_to_completion();
  EXPECT_EQ(fr.violations_detected(), 3u);  // detected every time
  EXPECT_EQ(fr.boosts_applied(), 2u);       // but boosted once (c1+c2)
  // After the freeze expires, a new violation boosts again.
  tb.c1().set_frequency(1600);
  tb.sim.run_until(tb.sim.now() + 2 * kMillisecond);
  fr.on_packet(request_to(tb, tb.c1(), TimePoint::origin()));
  tb.sim.run_to_completion();
  EXPECT_EQ(tb.c1().frequency(), kDvfs.max_mhz);
}

TEST(FirstResponderTest, ResponsesIgnored) {
  ControllerTestbed tb;
  FirstResponder fr(tb.env(), tb.network);
  fr.start();
  tb.sim.run_until(TimePoint::at(10 * kMillisecond));  // hugely "late"
  RpcPacket p = request_to(tb, tb.c1(), TimePoint::origin());
  p.is_response = true;
  fr.on_packet(p);
  tb.sim.run_to_completion();
  EXPECT_EQ(fr.violations_detected(), 0u);
}

TEST(FirstResponderTest, ClientPacketsIgnored) {
  ControllerTestbed tb;
  FirstResponder fr(tb.env(), tb.network);
  fr.start();
  tb.sim.run_until(TimePoint::at(10 * kMillisecond));
  RpcPacket p;
  p.dst_container = kClientEndpoint;
  p.start_time = TimePoint::origin();
  fr.on_packet(p);
  EXPECT_EQ(fr.violations_detected(), 0u);
}

TEST(FirstResponderTest, UnknownTargetsIgnored) {
  ControllerTestbed tb;
  ControllerEnv env = tb.env();
  env.targets.per_container.erase(tb.c2().id());
  FirstResponder fr(std::move(env), tb.network);
  fr.start();
  tb.sim.run_until(TimePoint::at(10 * kMillisecond));
  fr.on_packet(request_to(tb, tb.c2(), TimePoint::origin()));
  EXPECT_EQ(fr.violations_detected(), 0u);
}

TEST(FirstResponderTest, ContainerPastTheTargetTableIgnored) {
  // An id beyond every container with targets is inspected, never flagged.
  ControllerTestbed tb;
  FirstResponder fr(tb.env(), tb.network);
  fr.start();
  tb.sim.run_until(TimePoint::at(10 * kMillisecond));
  RpcPacket p = request_to(tb, tb.c2(), TimePoint::origin());
  p.dst_container = 1000;
  fr.on_packet(p);
  tb.sim.run_to_completion();
  EXPECT_EQ(fr.packets_inspected(), 1u);
  EXPECT_EQ(fr.violations_detected(), 0u);
  EXPECT_EQ(fr.boosts_applied(), 0u);
}

TEST(FirstResponderTest, SlackMarginScalesThreshold) {
  // Eq. 4 alone flags any packet older than the 200us expectation; the
  // margin stretches the threshold to kSlackMargin x 200us.
  ControllerTestbed tb;
  FirstResponder fr(tb.env(), tb.network);
  fr.start();
  tb.sim.run_until(TimePoint::at(kThreshold));
  fr.on_packet(request_to(tb, tb.c1(), TimePoint::origin()));  // on it -> fine
  EXPECT_EQ(fr.violations_detected(), 0u);
  tb.sim.run_until(TimePoint::at(kThreshold + Duration::ns(1)));
  fr.on_packet(request_to(tb, tb.c1(), TimePoint::origin()));  // past it
  EXPECT_EQ(fr.violations_detected(), 1u);
}

TEST(FirstResponderTest, FreezeWindowDerivedFromE2eLatency) {
  ControllerTestbed tb;
  FirstResponder fr(tb.env(), tb.network);  // 500us profiled e2e
  fr.start();
  EXPECT_EQ(fr.effective_freeze_window(),
            FirstResponder::kFreezeMultiple * Duration::us(500));
}

TEST(FirstResponderTest, HookedViaNetworkDelivery) {
  // End-to-end: a late packet delivered through the Network triggers the
  // hook without any manual on_packet call.
  ControllerTestbed tb;
  FirstResponder fr(tb.env(), tb.network);
  fr.start();
  tb.network.register_client_receiver([](const RpcPacket&) {});
  tb.sim.run_until(TimePoint::at(1 * kMillisecond));
  RpcPacket p = request_to(tb, tb.c1(), TimePoint::origin());  // started 1ms ago
  tb.network.send(kClientNode, p);
  tb.sim.run_to_completion();
  EXPECT_GE(fr.violations_detected(), 1u);
  EXPECT_GE(fr.packets_inspected(), 1u);
}

}  // namespace
}  // namespace sg
