// Randomized property tests: invariants that must hold under arbitrary
// (seeded, reproducible) operation sequences.
#include <gtest/gtest.h>

#include <cstdio>

#include "app/threadpool.hpp"
#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "sim/timeline.hpp"

namespace sg {
namespace {

// ---------------------------------------------------------------------------
// Processor-sharing container: work conservation. Whatever work is
// submitted, the integral of busy-core time equals the total work delivered
// (at reference frequency), regardless of interleavings and core changes.
class PsConservationTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PsConservationTest, BusyTimeEqualsWorkDelivered) {
  Simulator sim(GetParam());
  Rng rng(GetParam() * 77 + 1);
  Container::Params params;
  params.name = "prop";
  params.initial_cores = 2;
  Container c(sim, std::move(params));

  double total_work_ns = 0.0;
  int completed = 0;
  const int jobs = 200;
  TimePoint t;
  for (int i = 0; i < jobs; ++i) {
    t += Duration{static_cast<std::int64_t>(rng.exponential(50'000.0))};
    const double work = rng.uniform(1'000.0, 200'000.0);
    total_work_ns += work;
    sim.schedule_at(t, [&c, work, &completed]() {
      c.submit(work, [&completed]() { ++completed; });
    });
  }
  // Random core reconfigurations along the way (never to zero so the run
  // terminates).
  for (int i = 0; i < 20; ++i) {
    const TimePoint when{static_cast<std::int64_t>(
        rng.uniform(0.0, static_cast<double>(t.ns())))};
    const int cores = static_cast<int>(rng.uniform_int(1, 4));
    sim.schedule_at(when, [&c, cores]() { c.set_cores(cores); });
  }
  sim.run_to_completion();
  c.sync();
  EXPECT_EQ(completed, jobs);
  // busy_core_seconds (at ref frequency, speed 1.0) * 1e9 == work delivered.
  EXPECT_NEAR(c.busy_core_seconds() * 1e9, total_work_ns,
              total_work_ns * 0.001 + 100.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PsConservationTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// With frequency changes, the busy-time integral scales by 1/speed — check
// conservation of work via a frequency-weighted integral is preserved in the
// simple all-max case.
TEST(PsConservationTest, FrequencyScalesDeliveredWork) {
  Simulator sim(9);
  Container::Params params;
  params.name = "freq";
  params.initial_cores = 1;
  Container c(sim, std::move(params));
  c.set_frequency(kDvfs.max_mhz);
  const double speed = kDvfs.speed(kDvfs.max_mhz);
  c.submit(1'000'000.0, []() {});
  sim.run_to_completion();
  c.sync();
  // Wall time = work/speed; busy cores = 1.
  EXPECT_NEAR(c.busy_core_seconds() * 1e9, 1'000'000.0 / speed, 1000.0);
}

// ---------------------------------------------------------------------------
// Connection pool: under random acquire/release sequences, in_use <=
// capacity, FIFO grant order, and every granted acquire eventually pairs
// with exactly one release.
class PoolPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PoolPropertyTest, LedgerInvariants) {
  Rng rng(GetParam());
  const int capacity = static_cast<int>(rng.uniform_int(1, 5));
  ConnectionPool pool(capacity);
  int grants = 0;
  int outstanding = 0;
  std::vector<int> grant_order;
  int next_id = 0;

  auto grant = [&](std::uint64_t id) {
    ++grants;
    ++outstanding;
    grant_order.push_back(static_cast<int>(id));
  };
  auto release = [&]() {
    --outstanding;
    if (const auto next = pool.release()) grant(next->visit);
  };

  for (int step = 0; step < 2000; ++step) {
    if (rng.bernoulli(0.55) || outstanding == 0) {
      const auto id = static_cast<std::uint64_t>(next_id++);
      if (pool.acquire({id, TimePoint::origin()})) grant(id);
    } else {
      release();
    }
    ASSERT_LE(pool.in_use(), capacity);
    ASSERT_GE(pool.in_use(), 0);
    ASSERT_EQ(pool.in_use(), outstanding);
  }
  // FIFO: grants happen in acquire order.
  for (std::size_t i = 1; i < grant_order.size(); ++i) {
    ASSERT_GT(grant_order[i], grant_order[i - 1]);
  }
  // Drain the waiters.
  while (pool.waiting() > 0) release();
  ASSERT_EQ(static_cast<std::uint64_t>(grants), pool.total_acquisitions());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PoolPropertyTest,
                         ::testing::Values(11, 12, 13, 14, 15, 16));

// ---------------------------------------------------------------------------
// Node ledger under random grant/revoke storms.
TEST(NodeLedgerPropertyTest, RandomStormConserves) {
  Simulator sim(21);
  Rng rng(22);
  Cluster cluster(sim);
  cluster.add_node(64, 19);
  std::vector<Container*> cs;
  for (int i = 0; i < 6; ++i) {
    cs.push_back(&cluster.add_container("c" + std::to_string(i), 0, 3));
  }
  Node& node = cluster.node(0);
  const int total = node.app_cores();
  for (int step = 0; step < 5000; ++step) {
    Container* c = cs[static_cast<std::size_t>(rng.uniform_int(0, 5))];
    if (rng.bernoulli(0.5)) {
      node.grant(c, static_cast<int>(rng.uniform_int(1, 3)));
    } else {
      node.revoke(c, static_cast<int>(rng.uniform_int(1, 3)), 1);
    }
    ASSERT_GE(node.free_cores(), 0);
    ASSERT_EQ(node.allocated_cores() + node.free_cores(), total);
    for (Container* cc : cs) ASSERT_GE(cc->cores(), 1);
  }
}

// ---------------------------------------------------------------------------
// StepTimeline: at() is consistent with integrate() for random series.
class TimelinePropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TimelinePropertyTest, PointwiseMatchesIntegral) {
  Rng rng(GetParam());
  StepTimeline tl(rng.uniform(0.0, 5.0));
  TimePoint t;
  for (int i = 0; i < 100; ++i) {
    t += Duration{static_cast<std::int64_t>(rng.uniform_int(1, 1000))};
    tl.set(t, rng.uniform(0.0, 10.0));
  }
  // Riemann sum over unit steps equals integrate() (piecewise-constant, so
  // the unit-step sum is exact when steps land on integers).
  const TimePoint end = t + Duration{100};
  double riemann = 0.0;
  for (TimePoint x; x < end; x += kNanosecond) riemann += tl.at(x);
  EXPECT_NEAR(riemann, tl.integrate(TimePoint::origin(), end),
              1e-6 * riemann + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimelinePropertyTest,
                         ::testing::Values(31, 32, 33));

// ---------------------------------------------------------------------------
// Request conservation under packet loss: at drain, every issued request is
// accounted for exactly once — completed, abandoned, or still in flight —
// at every loss rate, including the armed-but-never-firing rate 0.
class FaultConservationTest : public ::testing::TestWithParam<double> {};

TEST_P(FaultConservationTest, IssuedEqualsCompletedPlusDroppedPlusInFlight) {
  const double rate = GetParam();
  ExperimentConfig cfg;
  cfg.workload = make_chain();
  cfg.controller = ControllerKind::kSurgeGuard;
  cfg.warmup = 2 * kSecond;
  cfg.duration = 4 * kSecond;
  cfg.surge_len = Duration::zero();
  cfg.seed = 5;
  cfg.rpc_retry.enabled = true;
  cfg.drain = 5 * kSecond;
  char spec[96];
  std::snprintf(spec, sizeof(spec),
                "drop:start_ms=2500,len_ms=1500,rate=%g", rate);
  std::string error;
  const auto plan = FaultPlan::parse(spec, &error);
  ASSERT_TRUE(plan.has_value()) << error;
  cfg.fault_plan = *plan;

  const ExperimentResult r = run_experiment(cfg);
  EXPECT_EQ(r.load.issued,
            r.load.completed_total + r.load.dropped + r.load.outstanding);
  // The drain outlives the recovery for this plan: nothing stays in flight.
  EXPECT_EQ(r.load.outstanding, 0u);
  if (rate == 0.0) {
    // An armed hook at rate 0 must behave exactly like no faults.
    EXPECT_EQ(r.faults.packets_dropped, 0u);
    EXPECT_EQ(r.load.retries, 0u);
    EXPECT_EQ(r.app_rpc_retries, 0u);
  } else {
    EXPECT_GT(r.faults.packets_dropped, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(DropRates, FaultConservationTest,
                         ::testing::Values(0.0, 0.01, 0.1));

// ---------------------------------------------------------------------------
// Node freeze/restart: through random grant/revoke storms interleaved with
// freeze/restart cycles, the core ledger stays within [0, app_cores], the
// frozen node rejects reallocation, and restart restores the pre-freeze
// allocation exactly.
TEST(NodeFreezePropertyTest, LedgerBoundedThroughFreezeRestartStorm) {
  Simulator sim(23);
  Rng rng(24);
  Cluster cluster(sim);
  cluster.add_node(64, 19);
  std::vector<Container*> cs;
  for (int i = 0; i < 6; ++i) {
    cs.push_back(&cluster.add_container("f" + std::to_string(i), 0, 3));
  }
  Node& node = cluster.node(0);
  const int total = node.app_cores();

  for (int cycle = 0; cycle < 40; ++cycle) {
    for (int step = 0; step < 50; ++step) {
      Container* c = cs[static_cast<std::size_t>(rng.uniform_int(0, 5))];
      if (rng.bernoulli(0.5)) {
        node.grant(c, static_cast<int>(rng.uniform_int(1, 3)));
      } else {
        node.revoke(c, static_cast<int>(rng.uniform_int(1, 3)), 1);
      }
      ASSERT_GE(node.free_cores(), 0);
      ASSERT_EQ(node.allocated_cores() + node.free_cores(), total);
      for (Container* cc : cs) {
        ASSERT_GE(cc->cores(), 1);
        ASSERT_LE(cc->cores(), total);
      }
    }

    std::vector<int> before;
    for (Container* cc : cs) before.push_back(cc->cores());
    node.freeze();
    ASSERT_TRUE(node.frozen());
    for (Container* cc : cs) ASSERT_EQ(cc->cores(), 0);
    ASSERT_EQ(node.allocated_cores(), 0);
    // Grant/revoke are rejected while frozen; allocations stay untouched.
    ASSERT_EQ(node.grant(cs[0], 2), 0);
    ASSERT_EQ(node.revoke(cs[1], 1, 0), 0);
    for (Container* cc : cs) ASSERT_EQ(cc->cores(), 0);

    node.restart();
    ASSERT_FALSE(node.frozen());
    for (std::size_t i = 0; i < cs.size(); ++i) {
      ASSERT_EQ(cs[i]->cores(), before[i]) << "container " << i
                                           << " not restored exactly";
    }
    ASSERT_EQ(node.allocated_cores() + node.free_cores(), total);
  }
}

// ---------------------------------------------------------------------------
// Speed-scale faults on the processor-sharing container: a freeze window
// stalls progress exactly (no work lost, no work invented), and jobs never
// disappear from the queue while stalled.
TEST(PsConservationTest, SpeedScaleFreezeStallsAndResumesExactly) {
  Simulator sim(41);
  Container::Params params;
  params.name = "frozen";
  params.initial_cores = 1;
  Container c(sim, std::move(params));

  TimePoint done_at;
  // 1ms of work at 1 core, reference frequency: finishes at t=1ms unfrozen.
  c.submit(1'000'000.0, [&]() { done_at = sim.now(); });
  // Freeze after 0.1ms of progress, thaw at 10ms.
  sim.schedule_at(TimePoint{100'000}, [&c]() { c.set_speed_scale(0.0); });
  sim.schedule_at(TimePoint{5'000'000}, [&c]() {
    // Mid-freeze: the job is stalled but still queued.
    EXPECT_EQ(c.active_jobs(), 1);
  });
  sim.schedule_at(TimePoint{10'000'000}, [&c]() { c.set_speed_scale(1.0); });
  sim.run_to_completion();
  c.sync();
  // 0.1ms ran, 9.9ms frozen, then the remaining 0.9ms: exact resume point.
  EXPECT_EQ(done_at, TimePoint{10'900'000});
  EXPECT_EQ(c.active_jobs(), 0);
  EXPECT_EQ(c.jobs_completed(), 1u);
}

}  // namespace
}  // namespace sg
