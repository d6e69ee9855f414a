#include "workload/load_generator.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "app/application.hpp"

namespace sg {
namespace {

using namespace sg::literals;

struct GenTestbed {
  Simulator sim;
  Cluster cluster{sim};
  Network network{sim};
  MetricsPlane metrics{1};
  std::unique_ptr<Application> app;

  explicit GenTestbed(std::uint64_t seed = 11) : sim(seed) {
    cluster.add_node(64, 19);
    AppSpec spec;
    spec.name = "one";
    ServiceSpec s;
    s.name = "svc";
    s.work_ns_mean = 50'000;  // 50us: fast enough to keep up
    s.work_sigma = 0.0;
    spec.services = {s};
    app = std::make_unique<Application>(cluster, network, metrics,
                                        std::move(spec),
                                        Deployment::single_node(spec, 0, 8));
  }
};

TEST(LoadGeneratorTest, DeterministicPacingIssuesExpectedCount) {
  GenTestbed tb;
  LoadGenOptions opts;
  opts.pattern = SpikePattern::steady(1000);
  opts.warmup = 1_s;
  opts.duration = 2_s;
  opts.qos = 10_ms;
  LoadGenerator gen(tb.sim, tb.network, *tb.app, opts);
  gen.start();
  tb.sim.run_until(gen.measure_end());
  const LoadGenResults r = gen.results();
  // 3 seconds at 1000 rps.
  EXPECT_NEAR(static_cast<double>(r.issued), 3000.0, 5.0);
  EXPECT_NEAR(r.throughput_rps, 1000.0, 10.0);
}

TEST(LoadGeneratorTest, SpikeRaisesIssueRate) {
  GenTestbed tb;
  LoadGenOptions opts;
  // 1s of 1000 rps, then a 1s spike at 3000, then 1s at 1000.
  opts.pattern = SpikePattern::surges(1000, 3.0, 1_s, 10_s, TimePoint::at(1_s));
  opts.warmup = Duration::zero();
  opts.duration = 3_s;
  opts.qos = 10_ms;
  LoadGenerator gen(tb.sim, tb.network, *tb.app, opts);
  gen.start();
  tb.sim.run_until(gen.measure_end());
  const LoadGenResults r = gen.results();
  EXPECT_NEAR(static_cast<double>(r.issued), 1000.0 + 3000.0 + 1000.0, 20.0);
}

TEST(LoadGeneratorTest, ShortSpikeNotSkippedByPacing) {
  // A 100us 20x spike between base-rate gaps must still produce extra
  // requests (boundary re-pacing).
  GenTestbed tb;
  LoadGenOptions opts;
  opts.pattern =
      SpikePattern::surges(1000, 20.0, 100_us, 1_s, TimePoint::at(500_ms));
  opts.warmup = Duration::zero();
  opts.duration = 1_s;
  opts.qos = 100_ms;
  LoadGenerator gen(tb.sim, tb.network, *tb.app, opts);
  gen.start();
  tb.sim.run_until(gen.measure_end());
  const LoadGenResults r = gen.results();
  // Base alone would be ~1000; the spike adds ~20000*0.0001 = 2 requests.
  EXPECT_GT(r.issued, 1000u);
}

TEST(LoadGeneratorTest, LatencyRecordedOnlyInWindow) {
  GenTestbed tb;
  LoadGenOptions opts;
  opts.pattern = SpikePattern::steady(1000);
  opts.warmup = 1_s;
  opts.duration = 1_s;
  opts.qos = 10_ms;
  LoadGenerator gen(tb.sim, tb.network, *tb.app, opts);
  gen.start();
  tb.sim.run_until(gen.measure_end() + 1_s);  // run past the window
  const LoadGenResults r = gen.results();
  EXPECT_NEAR(static_cast<double>(r.completed), 1000.0, 10.0);
  EXPECT_GT(r.p50, Duration::zero());
  EXPECT_LE(r.p50, r.p98);
  EXPECT_LE(r.p98, r.p99);
}

TEST(LoadGeneratorTest, QosRecordedInResults) {
  GenTestbed tb;
  LoadGenOptions opts;
  opts.pattern = SpikePattern::steady(100);
  opts.qos = 7_ms;
  opts.warmup = 100_ms;
  opts.duration = 500_ms;
  LoadGenerator gen(tb.sim, tb.network, *tb.app, opts);
  gen.start();
  tb.sim.run_until(gen.measure_end());
  EXPECT_EQ(gen.results().qos, 7_ms);
}

TEST(LoadGeneratorTest, StopHaltsIssuing) {
  GenTestbed tb;
  LoadGenOptions opts;
  opts.pattern = SpikePattern::steady(1000);
  opts.warmup = Duration::zero();
  opts.duration = 10_s;
  opts.qos = 10_ms;
  LoadGenerator gen(tb.sim, tb.network, *tb.app, opts);
  gen.start();
  tb.sim.run_until(TimePoint::at(500_ms));
  gen.stop();
  tb.sim.run_until(TimePoint::at(2_s));
  const LoadGenResults r = gen.results();
  EXPECT_NEAR(static_cast<double>(r.issued), 500.0, 5.0);
}

TEST(LoadGeneratorTest, ViolationVolumeZeroWhenFast) {
  GenTestbed tb;
  LoadGenOptions opts;
  opts.pattern = SpikePattern::steady(500);
  opts.qos = 50_ms;  // generous QoS; service is ~50us + hops
  opts.warmup = 500_ms;
  opts.duration = 1_s;
  LoadGenerator gen(tb.sim, tb.network, *tb.app, opts);
  gen.start();
  tb.sim.run_until(gen.measure_end());
  EXPECT_DOUBLE_EQ(gen.results().violation_volume_ms_s, 0.0);
}

TEST(LoadGeneratorTest, DeterministicAcrossRuns) {
  auto run = [](std::uint64_t seed) {
    GenTestbed tb(seed);
    LoadGenOptions opts;
    opts.pattern = SpikePattern::steady(1000);
    opts.warmup = 200_ms;
    opts.duration = 1_s;
    opts.qos = 10_ms;
    LoadGenerator gen(tb.sim, tb.network, *tb.app, opts);
    gen.start();
    tb.sim.run_until(gen.measure_end());
    const LoadGenResults r = gen.results();
    return std::make_tuple(r.issued, r.completed, r.p50, r.p99,
                           r.mean_latency_ns);
  };
  EXPECT_EQ(run(5), run(5));
  // Latency carries the seeded network jitter, so the check above compares
  // seed-dependent values.
  EXPECT_NE(std::get<4>(run(5)), std::get<4>(run(6)));
}

}  // namespace
}  // namespace sg
