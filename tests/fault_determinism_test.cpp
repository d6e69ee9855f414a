// Determinism golden tests for the fault-injection subsystem: the fault
// timeline is a pure function of (plan, seed). Same seed => bit-identical
// runs (event counts, fault footprint, client-visible results); different
// seeds => different fault timelines. Plus FaultPlan spec-grammar unit
// tests (parse/round-trip/validation/window composition).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/experiment.hpp"

namespace sg {
namespace {

using namespace sg::literals;

// Every fault kind fires once inside the measurement window.
constexpr const char* kAllKindsPlan =
    "drop:start_ms=3000,len_ms=1500,rate=0.05;"
    "dup:start_ms=3500,len_ms=1000,rate=0.05;"
    "delay:start_ms=4500,len_ms=1000,extra_us=200;"
    "slow:node=0,start_ms=5500,len_ms=400,factor=0.5;"
    "freeze:node=0,start_ms=6100,len_ms=200;"
    "stall:start_ms=6500,len_ms=500";

ExperimentConfig chaos_config(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.workload = make_chain();
  cfg.controller = ControllerKind::kSurgeGuard;
  cfg.warmup = 2_s;
  cfg.duration = 6_s;
  cfg.seed = seed;
  std::string error;
  const auto plan = FaultPlan::parse(kAllKindsPlan, &error);
  EXPECT_TRUE(plan.has_value()) << error;
  cfg.fault_plan = *plan;
  cfg.rpc_retry.enabled = true;
  cfg.drain = 4_s;
  return cfg;
}

// The run's observable footprint, compared field-by-field across replays.
struct RunDigest {
  std::uint64_t events = 0;
  std::string faults;
  std::uint64_t issued = 0;
  std::uint64_t completed_total = 0;
  std::uint64_t retries = 0;
  std::uint64_t dropped = 0;
  std::uint64_t app_retries = 0;
  std::uint64_t ticks_stalled = 0;
  double vv = 0.0;
  Duration p99;

  bool operator==(const RunDigest& o) const {
    return events == o.events && faults == o.faults && issued == o.issued &&
           completed_total == o.completed_total && retries == o.retries &&
           dropped == o.dropped && app_retries == o.app_retries &&
           ticks_stalled == o.ticks_stalled && vv == o.vv && p99 == o.p99;
  }
};

RunDigest digest_of(const ExperimentResult& r) {
  RunDigest d;
  d.events = r.events_processed;
  d.faults = r.faults.digest();
  d.issued = r.load.issued;
  d.completed_total = r.load.completed_total;
  d.retries = r.load.retries;
  d.dropped = r.load.dropped;
  d.app_retries = r.app_rpc_retries;
  d.ticks_stalled = r.controller_ticks_stalled;
  d.vv = r.load.violation_volume_ms_s;
  d.p99 = r.load.p99;
  return d;
}

TEST(FaultDeterminismTest, SameSeedReplaysBitIdentically) {
  const ProfileResult profile = profile_workload(make_chain(), 1);
  const RunDigest a = digest_of(run_experiment(chaos_config(31), profile));
  const RunDigest b = digest_of(run_experiment(chaos_config(31), profile));
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.faults, b.faults);
  EXPECT_EQ(a.issued, b.issued);
  EXPECT_EQ(a.completed_total, b.completed_total);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.app_retries, b.app_retries);
  EXPECT_EQ(a.ticks_stalled, b.ticks_stalled);
  EXPECT_EQ(a.vv, b.vv);  // exact: bit-identical event sequences
  EXPECT_EQ(a.p99, b.p99);
  EXPECT_TRUE(a == b);
}

TEST(FaultDeterminismTest, DifferentSeedsProduceDifferentFaultTimelines) {
  const ProfileResult profile = profile_workload(make_chain(), 1);
  const RunDigest a = digest_of(run_experiment(chaos_config(31), profile));
  const RunDigest b = digest_of(run_experiment(chaos_config(32), profile));
  // Thousands of independent coin flips: the per-kind fault counts (and
  // hence the digests) diverge with overwhelming probability.
  EXPECT_FALSE(a == b);
  EXPECT_NE(a.faults, b.faults);
}

TEST(FaultDeterminismTest, EveryFaultKindFires) {
  const ProfileResult profile = profile_workload(make_chain(), 1);
  const ExperimentResult r = run_experiment(chaos_config(31), profile);
  EXPECT_GT(r.faults.packets_dropped, 0u);
  EXPECT_GT(r.faults.packets_duplicated, 0u);
  EXPECT_GT(r.faults.packets_delayed, 0u);
  EXPECT_EQ(r.faults.node_slowdowns, 1u);
  EXPECT_EQ(r.faults.node_freezes, 1u);
  EXPECT_EQ(r.faults.node_restarts, 1u);
  EXPECT_GT(r.controller_ticks_stalled, 0u);
  // The chaos run still drains: conservation and zero stranded requests.
  EXPECT_EQ(r.load.issued,
            r.load.completed_total + r.load.dropped + r.load.outstanding);
  EXPECT_EQ(r.load.outstanding, 0u);
}

// ---------------------------------------------------------------------------
// FaultPlan spec grammar.

// Request ids of node 1's packets that survive a 50% drop window, sent
// after node 0 sent `others` packets of its own.
std::vector<RequestId> node1_survivors(int others) {
  Simulator sim(9);
  Cluster cluster(sim);
  cluster.add_node(4, 0);
  cluster.add_node(4, 0);
  Network net(sim, {}, 2);
  std::string error;
  const auto plan =
      FaultPlan::parse("drop:start_ms=0,len_ms=1000,rate=0.5", &error);
  EXPECT_TRUE(plan.has_value()) << error;
  FaultInjector injector(sim, *plan);
  injector.arm(&net, &cluster);
  std::vector<RequestId> survivors;
  net.register_receiver(0, [](const RpcPacket&) {});
  net.register_receiver(1, [&](const RpcPacket& p) {
    survivors.push_back(p.request_id);
  });
  RpcPacket pkt;
  pkt.dst_container = 0;
  pkt.dst_node = 0;
  pkt.src_node = 0;
  for (int i = 0; i < others; ++i) net.send(0, pkt);
  pkt.dst_container = 1;
  pkt.dst_node = 1;
  pkt.src_node = 1;
  for (RequestId id = 1; id <= 64; ++id) {
    pkt.request_id = id;
    net.send(1, pkt);
  }
  sim.run_to_completion();
  std::sort(survivors.begin(), survivors.end());
  return survivors;
}

TEST(FaultDeterminismTest, SenderCoinFlipsIgnoreOtherSenders) {
  // Each sender flips its own coins: node 0's traffic does not change which
  // of node 1's packets are dropped.
  const std::vector<RequestId> alone = node1_survivors(0);
  EXPECT_GT(alone.size(), 0u);
  EXPECT_LT(alone.size(), 64u);
  EXPECT_EQ(node1_survivors(1), alone);
  EXPECT_EQ(node1_survivors(9), alone);
}

TEST(FaultDeterminismDeathTest, ArmRejectsNodeCountMismatch) {
  Simulator sim(1);
  Cluster cluster(sim);
  cluster.add_node(4, 0);
  cluster.add_node(4, 0);
  Network net(sim);  // one node
  FaultInjector injector(sim, FaultPlan{});
  EXPECT_DEATH(injector.arm(&net, &cluster), "disagree on the node count");
}

TEST(FaultInjectorTest, DelayWindowIsHalfOpenAtSendTime) {
  // A delay window [start, end) applies to the packets SENT inside it: one
  // sent at start pays the extra delay, one sent at end does not.
  Simulator sim(1);
  NetworkLatencyModel model;
  model.jitter = 0.0;
  Network net(sim, model);
  FaultWindow delay;
  delay.kind = FaultKind::kPacketDelay;
  delay.start = TimePoint::at(1_ms);
  delay.end = TimePoint::at(2_ms);
  delay.extra_delay = 100_us;
  FaultPlan plan;
  plan.add(delay);
  FaultInjector injector(sim, plan);
  injector.arm(&net, nullptr);

  // Indexed by request id: the undelayed packet sent at end arrives before
  // the delayed one sent 1 ns earlier.
  std::vector<TimePoint> delivered(4);
  net.register_receiver(1, [&](const RpcPacket& p) {
    delivered[p.request_id] = sim.now();
  });
  const TimePoint sends[] = {delay.start - kNanosecond, delay.start,
                             delay.end - kNanosecond, delay.end};
  for (RequestId id = 0; id < 4; ++id) {
    RpcPacket pkt;
    pkt.request_id = id;
    pkt.dst_container = 1;
    pkt.src_node = 0;
    sim.schedule_at(sends[id], [&net, pkt]() { net.send(0, pkt); });
  }
  sim.run_to_completion();

  EXPECT_EQ(delivered[0], sends[0] + model.same_node);
  EXPECT_EQ(delivered[1], sends[1] + model.same_node + 100_us);
  EXPECT_EQ(delivered[2], sends[2] + model.same_node + 100_us);
  EXPECT_EQ(delivered[3], sends[3] + model.same_node);
  EXPECT_EQ(injector.stats().packets_delayed, 2u);
}

TEST(FaultPlanTest, ToStringRoundTrips) {
  // The last three need more than %g's 6 significant digits.
  for (const char* spec :
       {kAllKindsPlan, "drop:start_ms=1234567,len_ms=10,rate=0.1",
        "slow:node=0,start_ms=0,len_ms=1,factor=0.123456789",
        "delay:start_ms=1234.567891,len_ms=0.000001,extra_us=9007199254.7"}) {
    std::string error;
    const auto plan = FaultPlan::parse(spec, &error);
    ASSERT_TRUE(plan.has_value()) << spec << ": " << error;
    const std::string rendered = plan->to_string();
    const auto reparsed = FaultPlan::parse(rendered, &error);
    ASSERT_TRUE(reparsed.has_value()) << rendered << ": " << error;
    EXPECT_EQ(*reparsed, *plan) << spec << " echoes as " << rendered;
    EXPECT_EQ(reparsed->to_string(), rendered);
  }
}

TEST(FaultPlanTest, TimesRoundToTheNearestNanosecond) {
  const auto plan = FaultPlan::parse(
      "delay:start_ms=1234.567891,len_ms=0.0000006,extra_us=0.0004");
  ASSERT_TRUE(plan.has_value());
  const FaultWindow& w = plan->windows().front();
  EXPECT_EQ(w.start, TimePoint{1'234'567'891});
  EXPECT_EQ(w.end - w.start, Duration::ns(1));
  EXPECT_EQ(w.extra_delay, Duration::zero());
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  std::string error;
  EXPECT_FALSE(FaultPlan::parse("explode:start_ms=0,len_ms=1", &error));
  EXPECT_NE(error.find("unknown fault kind"), std::string::npos);
  EXPECT_FALSE(
      FaultPlan::parse("drop:start_ms=0,len_ms=1,rate=1.5", &error));
  EXPECT_FALSE(FaultPlan::parse("drop:start_ms=0,rate=0.1", &error))
      << "a window without len_ms must be rejected";
  EXPECT_FALSE(FaultPlan::parse("drop:start_ms=zero,len_ms=1", &error));
  EXPECT_FALSE(FaultPlan::parse("drop start_ms=0", &error));
  EXPECT_FALSE(
      FaultPlan::parse("slow:start_ms=0,len_ms=1,factor=0", &error));
}

TEST(FaultPlanTest, RejectsNonFiniteAndOutOfRangeNumbers) {
  // Each spec is rejected with an error naming the key and the value.
  const struct {
    const char* spec;
    const char* key;
    const char* value;
  } cases[] = {
      {"delay:start_ms=0,len_ms=1,extra_us=1e16", "extra_us", "1e16"},
      {"drop:start_ms=1e20,len_ms=1,rate=0.1", "start_ms", "1e20"},
      {"drop:start_ms=-1,len_ms=1,rate=0.1", "start_ms", "-1"},
      {"stall:start_ms=inf,len_ms=1", "start_ms", "inf"},
      {"drop:start_ms=0,len_ms=9.3e12,rate=0.1", "len_ms", "9.3e12"},
      // Each fits on its own; the window end does not.
      {"stall:start_ms=5e12,len_ms=5e12", "len_ms", "5e12"},
      {"drop:start_ms=0,len_ms=1,rate=nan", "rate", "nan"},
      {"dup:start_ms=0,len_ms=1,rate=-0.1", "rate", "-0.1"},
      {"slow:start_ms=0,len_ms=1,factor=nan", "factor", "nan"},
      {"freeze:start_ms=0,len_ms=1,node=-5", "node", "-5"},
      {"freeze:start_ms=0,len_ms=1,node=0.7", "node", "0.7"},
      {"freeze:start_ms=0,len_ms=1,node=1e10", "node", "1e10"},
      {"drop:start_ms=zero,len_ms=1", "start_ms", "zero"},
  };
  for (const auto& c : cases) {
    std::string error;
    EXPECT_FALSE(FaultPlan::parse(c.spec, &error)) << c.spec;
    EXPECT_NE(error.find("'" + std::string(c.key) + "'"), std::string::npos)
        << c.spec << ": " << error;
    EXPECT_NE(error.find("'" + std::string(c.value) + "'"), std::string::npos)
        << c.spec << ": " << error;
  }
  // The edges still parse: every node, a named node, a window ending just
  // inside the range.
  std::string error;
  const auto plan = FaultPlan::parse(
      "freeze:start_ms=0,len_ms=1,node=-1;slow:node=3,start_ms=0,len_ms=1,"
      "factor=1;stall:start_ms=9e12,len_ms=2e11",
      &error);
  ASSERT_TRUE(plan.has_value()) << error;
  EXPECT_EQ(plan->windows()[0].node, -1);
  EXPECT_EQ(plan->windows()[1].node, 3);
  EXPECT_EQ(plan->windows()[2].end, TimePoint::at(Duration::sec(9'200'000'000)));
}

TEST(FaultPlanTest, RejectsKeysTheKindDoesNotRead) {
  // Each spec is rejected with an error naming the key and the kind.
  const struct {
    const char* spec;
    const char* key;
    const char* kind;
  } cases[] = {
      {"drop:node=1,start_ms=1000,len_ms=500,rate=0.1", "node", "drop"},
      {"dup:start_ms=0,len_ms=1,rate=0.1,node=0", "node", "dup"},
      {"delay:start_ms=0,len_ms=1,extra_us=10,node=-1", "node", "delay"},
      {"stall:start_ms=0,len_ms=1,node=0", "node", "stall"},
      {"slow:start_ms=0,len_ms=1,factor=0.5,rate=0.1", "rate", "slow"},
      {"delay:start_ms=0,len_ms=1,rate=0.1", "rate", "delay"},
      {"freeze:start_ms=0,len_ms=1,factor=0.5", "factor", "freeze"},
      {"drop:start_ms=0,len_ms=1,factor=0.5", "factor", "drop"},
      {"dup:start_ms=0,len_ms=1,extra_us=10", "extra_us", "dup"},
      {"slow:start_ms=0,len_ms=1,extra_us=10", "extra_us", "slow"},
  };
  for (const auto& c : cases) {
    std::string error;
    EXPECT_FALSE(FaultPlan::parse(c.spec, &error)) << c.spec;
    EXPECT_NE(error.find("'" + std::string(c.key) + "'"), std::string::npos)
        << c.spec << ": " << error;
    EXPECT_NE(error.find(std::string(c.kind) + " windows"), std::string::npos)
        << c.spec << ": " << error;
  }
}

TEST(FaultPlanTest, EchoKeepsEveryKeyTheUserWrote) {
  // With every ignored key rejected, each key written survives the echo.
  const std::string spec =
      "drop:start_ms=1000,len_ms=500,rate=0.1;"
      "dup:start_ms=1000,len_ms=500,rate=0.2;"
      "delay:start_ms=1000,len_ms=500,extra_us=300;"
      "slow:start_ms=1000,len_ms=500,factor=0.25,node=1;"
      "freeze:start_ms=1000,len_ms=500,node=0;"
      "stall:start_ms=1000,len_ms=500";
  std::string error;
  const auto plan = FaultPlan::parse(spec, &error);
  ASSERT_TRUE(plan.has_value()) << error;
  EXPECT_EQ(plan->to_string(), spec);
}

TEST(FaultPlanTest, ValidateRejectsNaNRatesAndFactors) {
  // Windows built in code skip parse(); validate() still catches NaN.
  FaultWindow drop;
  drop.kind = FaultKind::kPacketDrop;
  drop.end = TimePoint::at(1_ms);
  drop.rate = std::nan("");
  FaultPlan drops;
  drops.add(drop);
  EXPECT_FALSE(drops.validate());
  FaultWindow slow;
  slow.kind = FaultKind::kNodeSlowdown;
  slow.end = TimePoint::at(1_ms);
  slow.factor = std::nan("");
  FaultPlan slows;
  slows.add(slow);
  EXPECT_FALSE(slows.validate());
}

TEST(FaultPlanTest, EmptySpecIsEmptyPlan) {
  std::string error;
  const auto plan = FaultPlan::parse("", &error);
  ASSERT_TRUE(plan.has_value()) << error;
  EXPECT_TRUE(plan->empty());
}

TEST(FaultPlanTest, OverlappingDropWindowsCompose) {
  std::string error;
  const auto plan = FaultPlan::parse(
      "drop:start_ms=0,len_ms=10,rate=0.5;drop:start_ms=5,len_ms=10,rate=0.5",
      &error);
  ASSERT_TRUE(plan.has_value()) << error;
  // Independent losses compose as 1 - prod(1 - rate_i).
  EXPECT_DOUBLE_EQ(plan->drop_rate_at(TimePoint::at(2 * kMillisecond)), 0.5);
  EXPECT_DOUBLE_EQ(plan->drop_rate_at(TimePoint::at(7 * kMillisecond)), 0.75);
  EXPECT_DOUBLE_EQ(plan->drop_rate_at(TimePoint::at(12 * kMillisecond)), 0.5);
  EXPECT_DOUBLE_EQ(plan->drop_rate_at(TimePoint::at(20 * kMillisecond)), 0.0);
}

TEST(FaultPlanTest, DelayWindowsAdd) {
  std::string error;
  const auto plan = FaultPlan::parse(
      "delay:start_ms=0,len_ms=10,extra_us=100;"
      "delay:start_ms=5,len_ms=10,extra_us=50",
      &error);
  ASSERT_TRUE(plan.has_value()) << error;
  EXPECT_EQ(plan->extra_delay_at(TimePoint::at(2 * kMillisecond)),
            100 * kMicrosecond);
  EXPECT_EQ(plan->extra_delay_at(TimePoint::at(7 * kMillisecond)),
            150 * kMicrosecond);
  EXPECT_EQ(plan->extra_delay_at(TimePoint::at(12 * kMillisecond)),
            50 * kMicrosecond);
}

TEST(FaultPlanTest, StallWindowHalfOpen) {
  std::string error;
  const auto plan =
      FaultPlan::parse("stall:start_ms=10,len_ms=5", &error);
  ASSERT_TRUE(plan.has_value()) << error;
  const TimePoint start = TimePoint::at(10 * kMillisecond);
  const TimePoint end = TimePoint::at(15 * kMillisecond);
  EXPECT_FALSE(plan->controller_stalled_at(start - kNanosecond));
  EXPECT_TRUE(plan->controller_stalled_at(start));
  EXPECT_TRUE(plan->controller_stalled_at(end - kNanosecond));
  EXPECT_FALSE(plan->controller_stalled_at(end));
}

}  // namespace
}  // namespace sg
