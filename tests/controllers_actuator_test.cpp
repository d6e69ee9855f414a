// The Actuator carries out every controller's resource actions and is the
// only writer of the decision audit. A record is written exactly when the
// action took effect: these cases pin that rule at its edges.
#include <gtest/gtest.h>

#include <vector>

#include "controller_test_util.hpp"
#include "controllers/controller.hpp"
#include "trace/trace.hpp"

namespace sg {
namespace {

using testutil::ControllerTestbed;

struct Record {
  DecisionKind kind;
  int container;
  int amount;
  bool operator==(const Record&) const = default;
};
using Records = std::vector<Record>;

Records records(TraceSink& sink) {
  Records out;
  for (const DecisionEvent& e : sink.report().decisions) {
    EXPECT_STREQ(e.controller, "test");
    EXPECT_EQ(e.node, 0);
    out.push_back({e.kind, e.container, e.amount});
  }
  return out;
}

TEST(ActuatorTest, GrantLimitedByThePoolRecordsWhatItGranted) {
  ControllerTestbed tb(8, 2, 25);  // 6 app cores, 4 allocated: 2 free
  TraceSink& sink = tb.sim.enable_tracing(TraceOptions{});
  Actuator act(tb.env(), "test");
  EXPECT_EQ(act.grant(tb.c1(), 5), 2);
  EXPECT_EQ(act.grant(tb.c1(), 2), 0);  // pool dry: no record
  EXPECT_EQ(records(sink),
            (Records{{DecisionKind::kCoreGrant, tb.c1().id(), 2}}));
}

TEST(ActuatorTest, RevokeStoppedAtTheFloorRecordsWhatItRevoked) {
  ControllerTestbed tb(8, 4);
  TraceSink& sink = tb.sim.enable_tracing(TraceOptions{});
  Actuator act(tb.env(), "test");
  EXPECT_EQ(act.revoke(tb.c2(), 10, /*floor=*/3), 1);
  EXPECT_EQ(act.revoke(tb.c2(), 2, /*floor=*/3), 0);  // at the floor
  EXPECT_EQ(records(sink),
            (Records{{DecisionKind::kCoreRevoke, tb.c2().id(), 1}}));
}

TEST(ActuatorTest, FrequencyRecordsOnlyAChangeByDirection) {
  ControllerTestbed tb;
  TraceSink& sink = tb.sim.enable_tracing(TraceOptions{});
  Actuator act(tb.env(), "test");
  Container& c = tb.c1();
  act.set_frequency(c, c.frequency());  // unchanged: no record
  act.set_frequency(c, kDvfs.max_mhz + 1000);  // clamped to the maximum
  act.set_frequency(c, kDvfs.max_mhz);  // already there: no record
  act.set_frequency(c, kDvfs.min_mhz);
  EXPECT_EQ(records(sink),
            (Records{{DecisionKind::kFreqBoost, c.id(), kDvfs.max_mhz},
                     {DecisionKind::kFreqLower, c.id(), kDvfs.min_mhz}}));
}

TEST(ActuatorTest, FrozenNodeGrantsAndRevokesNothingAndRecordsNothing) {
  ControllerTestbed tb;
  TraceSink& sink = tb.sim.enable_tracing(TraceOptions{});
  Actuator act(tb.env(), "test");
  tb.cluster.node(0).freeze();
  EXPECT_EQ(act.grant(tb.c1(), 2), 0);
  EXPECT_EQ(act.revoke(tb.c1(), 1), 0);
  EXPECT_TRUE(records(sink).empty());
}

TEST(ActuatorTest, UpscaleStampRecordsOnlyAPositiveDepth) {
  ControllerTestbed tb;
  TraceSink& sink = tb.sim.enable_tracing(TraceOptions{});
  Actuator act(tb.env(), "test");
  act.set_upscale_stamp(tb.c1(), 3);
  act.set_upscale_stamp(tb.c1(), 0);
  EXPECT_EQ(records(sink),
            (Records{{DecisionKind::kUpscaleStamp, tb.c1().id(), 3}}));
}

TEST(ActuatorTest, SetPointsShrinkFirstAndRecordEveryContainer) {
  ControllerTestbed tb(8, 2, 25);  // 2 cores free
  TraceSink& sink = tb.sim.enable_tracing(TraceOptions{});
  Actuator act(tb.sim, tb.cluster, "test");
  // c2's grow to 5 needs the core c1's shrink frees, although c2 comes
  // second; c1 stays listed even when a later set-point leaves it as is.
  act.set_cores({{tb.c2().id(), 5}, {tb.c1().id(), 1}});
  EXPECT_EQ(tb.c1().cores(), 1);
  EXPECT_EQ(tb.c2().cores(), 5);
  act.set_cores({{tb.c1().id(), 1}});
  EXPECT_EQ(records(sink),
            (Records{{DecisionKind::kAllocSet, tb.c2().id(), 5},
                     {DecisionKind::kAllocSet, tb.c1().id(), 1},
                     {DecisionKind::kAllocSet, tb.c1().id(), 1}}));
}

TEST(ActuatorTest, ActsWithTracingDisabled) {
  ControllerTestbed tb;
  Actuator act(tb.env(), "test");
  EXPECT_EQ(act.grant(tb.c1(), 2), 2);
  act.set_frequency(tb.c1(), kDvfs.max_mhz);
  EXPECT_EQ(tb.c1().frequency(), kDvfs.max_mhz);
  EXPECT_EQ(tb.sim.trace_sink(), nullptr);
}

}  // namespace
}  // namespace sg
