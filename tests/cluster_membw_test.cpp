// Shared memory-bandwidth interference domain (paper §VII extension).
#include "cluster/membw.hpp"

#include <gtest/gtest.h>

#include "cluster/cluster.hpp"

namespace sg {
namespace {

MemBwDomain::Params tight_bw() {
  MemBwDomain::Params p;
  p.node_bw_gbs = 12.0;              // 2 busy cores saturate
  p.demand_per_busy_core_gbs = 6.0;
  return p;
}

TEST(MemBwTest, NoContentionFactorIsOne) {
  Simulator sim;
  Cluster cluster(sim);
  cluster.add_node(64, 19);
  cluster.node(0).enable_membw(tight_bw());
  cluster.add_container("a", 0, 2);
  EXPECT_DOUBLE_EQ(cluster.node(0).membw()->interference_factor(), 1.0);
  EXPECT_DOUBLE_EQ(cluster.node(0).membw()->current_demand_gbs(), 0.0);
}

TEST(MemBwTest, ContentionSlowsExecution) {
  // One busy core: no contention, job takes its nominal time. Four busy
  // cores against 2-core-worth of bandwidth: everything runs at half speed.
  Simulator sim;
  Cluster cluster(sim);
  cluster.add_node(64, 19);
  cluster.node(0).enable_membw(tight_bw());
  Container& a = cluster.add_container("a", 0, 4);

  TimePoint solo_done;
  a.submit(1000.0, [&]() { solo_done = sim.now(); });
  sim.run_to_completion();
  EXPECT_NEAR(static_cast<double>(solo_done.ns()), 1000.0, 2.0);

  // Now 4 concurrent jobs on 4 cores: demand 24 GB/s vs 12 -> factor 0.5.
  const TimePoint start = sim.now();
  std::vector<Duration> done;
  for (int i = 0; i < 4; ++i) {
    a.submit(1000.0, [&]() { done.push_back(sim.now() - start); });
  }
  EXPECT_NEAR(cluster.node(0).membw()->interference_factor(), 0.5, 1e-9);
  sim.run_to_completion();
  ASSERT_EQ(done.size(), 4u);
  for (Duration d : done) {
    EXPECT_NEAR(static_cast<double>(d.ns()), 2000.0, 5.0);
  }
}

TEST(MemBwTest, ContentionSpansContainers) {
  // Interference is a NODE property: a noisy neighbor slows its peers.
  Simulator sim;
  Cluster cluster(sim);
  cluster.add_node(64, 19);
  cluster.node(0).enable_membw(tight_bw());
  Container& victim = cluster.add_container("victim", 0, 1);
  Container& noisy = cluster.add_container("noisy", 0, 3);

  // Noisy neighbor keeps 3 cores busy for a long time: total busy 4 cores
  // -> demand 24 vs bw 12 -> factor 0.5 while they overlap.
  for (int i = 0; i < 3; ++i) noisy.submit(1e9, []() {});
  TimePoint done;
  victim.submit(1000.0, [&]() { done = sim.now(); });
  sim.run_until(TimePoint{10'000});
  EXPECT_NEAR(static_cast<double>(done.ns()), 2000.0, 5.0);
}

TEST(MemBwTest, FactorRecoversWhenLoadDrops) {
  Simulator sim;
  Cluster cluster(sim);
  cluster.add_node(64, 19);
  cluster.node(0).enable_membw(tight_bw());
  Container& a = cluster.add_container("a", 0, 4);
  for (int i = 0; i < 4; ++i) a.submit(1000.0, []() {});
  EXPECT_LT(cluster.node(0).membw()->interference_factor(), 1.0);
  sim.run_to_completion();
  EXPECT_DOUBLE_EQ(cluster.node(0).membw()->interference_factor(), 1.0);
}

TEST(MemBwTest, ProgressBankedAtOldFactorBeforeChange) {
  // A job that runs 500ns uncontended then gets a noisy neighbor must keep
  // the full-speed progress it already made.
  Simulator sim;
  Cluster cluster(sim);
  cluster.add_node(64, 19);
  cluster.node(0).enable_membw(tight_bw());
  Container& a = cluster.add_container("a", 0, 1);
  Container& b = cluster.add_container("b", 0, 3);
  TimePoint done;
  a.submit(1000.0, [&]() { done = sim.now(); });
  sim.schedule_at(TimePoint{500}, [&]() {
    for (int i = 0; i < 3; ++i) b.submit(1e9, []() {});
  });
  sim.run_until(TimePoint{5000});
  // 500 work at speed 1 + 500 work at speed 0.5 -> done at 500 + 1000.
  EXPECT_NEAR(static_cast<double>(done.ns()), 1500.0, 5.0);
}

TEST(MemBwTest, CompletionInstantExactAcrossFactorChanges) {
  // The interference factor is an input of every member's rate: a's job
  // runs at 1 until b's jobs halve the factor at 500, at 0.5 until b drops
  // to one core at 1500 (4 busy cores -> 2, factor back to 1), then at 1.
  // vtime: 500 + 1000 * 0.5 = 1000 at 1500, so the last 2000 end at 3500.
  Simulator sim;
  Cluster cluster(sim);
  cluster.add_node(64, 19);
  cluster.node(0).enable_membw(tight_bw());
  Container& a = cluster.add_container("a", 0, 1);
  Container& b = cluster.add_container("b", 0, 3);
  TimePoint done = TimePoint::infinity();
  a.submit(3000.0, [&]() { done = sim.now(); });
  sim.schedule_at(TimePoint{500}, [&]() {
    for (int i = 0; i < 3; ++i) b.submit(1e9, []() {});
    EXPECT_DOUBLE_EQ(cluster.node(0).membw()->interference_factor(), 0.5);
  });
  sim.schedule_at(TimePoint{1500}, [&]() {
    b.set_cores(1);
    EXPECT_DOUBLE_EQ(cluster.node(0).membw()->interference_factor(), 1.0);
  });
  sim.run_until(TimePoint{10'000});
  EXPECT_EQ(done, TimePoint{3500});
}

TEST(MemBwTest, JoiningAContendedDomainSlowsAtOnce) {
  // x's 50 busy cores halve the factor when the domain is enabled at 200;
  // y joins next, and its extra core moves the factor by less than the
  // hysteresis (0.5 to 25/51), so no resync follows: y's rate must take the
  // domain's 0.5 on joining. vtime 200 at the join, the last 800 take 1600.
  MemBwDomain::Params p;
  p.node_bw_gbs = 25.0;              // 25 busy cores saturate
  p.demand_per_busy_core_gbs = 1.0;
  ASSERT_LT(0.5 - 25.0 / 51.0, MemBwDomain::kHysteresis);
  Simulator sim;
  Cluster cluster(sim);
  cluster.add_node(128, 19);
  Container& x = cluster.add_container("x", 0, 50);
  Container& y = cluster.add_container("y", 0, 1);
  for (int i = 0; i < 50; ++i) x.submit(1e9, []() {});
  TimePoint done = TimePoint::infinity();
  y.submit(1000.0, [&]() { done = sim.now(); });
  sim.schedule_at(TimePoint{200}, [&]() {
    cluster.node(0).enable_membw(p);
    EXPECT_DOUBLE_EQ(cluster.node(0).membw()->interference_factor(), 0.5);
  });
  sim.run_until(TimePoint{10'000});
  EXPECT_EQ(done, TimePoint{1800});
}

TEST(MemBwTest, HysteresisSuppressesTinyChanges) {
  MemBwDomain::Params p;
  p.node_bw_gbs = 100.0;
  p.demand_per_busy_core_gbs = 1.0;  // essentially never contended
  Simulator sim;
  Cluster cluster(sim);
  cluster.add_node(64, 19);
  cluster.node(0).enable_membw(p);
  Container& a = cluster.add_container("a", 0, 4);
  for (int i = 0; i < 4; ++i) a.submit(1000.0, []() {});
  EXPECT_DOUBLE_EQ(cluster.node(0).membw()->interference_factor(), 1.0);
  sim.run_to_completion();
}

TEST(MemBwTest, WorkConservationUnderContention) {
  // Busy-core-seconds still reflect wall-clock busy time (energy charges
  // stalled-on-memory cores), while delivered work reflects the slowdown.
  Simulator sim;
  Cluster cluster(sim);
  cluster.add_node(64, 19);
  cluster.node(0).enable_membw(tight_bw());
  Container& a = cluster.add_container("a", 0, 4);
  int completed = 0;
  for (int i = 0; i < 4; ++i) {
    a.submit(1'000'000.0, [&]() { ++completed; });
  }
  sim.run_to_completion();
  a.sync();
  EXPECT_EQ(completed, 4);
  // Wall time 2ms (factor 0.5), 4 cores busy -> 8e-3 busy-core-seconds.
  EXPECT_NEAR(a.busy_core_seconds(), 0.008, 1e-4);
}

}  // namespace
}  // namespace sg
