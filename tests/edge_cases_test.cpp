// Edge cases and failure injection across module boundaries: degenerate
// configurations that must not crash, corrupt the ledger, or wedge the
// event loop.
#include <gtest/gtest.h>

#include "app/application.hpp"
#include "controllers/escalator.hpp"
#include "controllers/parties.hpp"
#include "core/experiment.hpp"
#include "workload/load_generator.hpp"

namespace sg {
namespace {

using namespace sg::literals;

TEST(EdgeCaseTest, ZeroWorkServiceCompletes) {
  Simulator sim(1);
  Cluster cluster(sim);
  cluster.add_node(64, 19);
  Network network(sim);
  MetricsPlane metrics(1);
  AppSpec spec;
  spec.name = "zero";
  ServiceSpec s;
  s.name = "noop";
  s.work_ns_mean = 0.0;
  s.work_sigma = 0.0;
  spec.services = {s};
  Application app(cluster, network, metrics, spec,
                  Deployment::single_node(spec, 0, 1));
  bool done = false;
  network.register_client_receiver([&](const RpcPacket&) { done = true; });
  RpcPacket pkt;
  pkt.request_id = 1;
  pkt.dst_container = app.entry_container();
  pkt.dst_node = 0;
  pkt.start_time = TimePoint::origin();
  network.send(kClientNode, pkt);
  sim.run_to_completion();
  EXPECT_TRUE(done);
}

TEST(EdgeCaseTest, SingleServiceAppUnderLoad) {
  // Degenerate task graph: no edges, no pools, no downstream.
  Simulator sim(2);
  Cluster cluster(sim);
  cluster.add_node(64, 19);
  Network network(sim);
  MetricsPlane metrics(1);
  AppSpec spec;
  spec.name = "solo";
  ServiceSpec s;
  s.name = "only";
  s.work_ns_mean = 100'000;
  spec.services = {s};
  Application app(cluster, network, metrics, spec,
                  Deployment::single_node(spec, 0, 2));
  LoadGenOptions opts;
  opts.pattern = SpikePattern::steady(5000);
  opts.qos = 10_ms;
  opts.warmup = 100_ms;
  opts.duration = 1_s;
  LoadGenerator gen(sim, network, app, opts);
  gen.start();
  sim.run_until(gen.measure_end());
  EXPECT_GT(gen.results().completed, 4000u);
}

TEST(EdgeCaseTest, ControllerWithZeroTargetsIsInert) {
  // Missing/zero targets (limit 0) must never divide by zero or upscale on
  // garbage ratios.
  Simulator sim(3);
  Cluster cluster(sim);
  cluster.add_node(64, 19);
  Network network(sim);
  MetricsPlane metrics(1);
  AppSpec spec;
  spec.name = "notargets";
  ServiceSpec s;
  s.name = "svc";
  spec.services = {s};
  Application app(cluster, network, metrics, spec,
                  Deployment::single_node(spec, 0, 2));
  ControllerEnv env;
  env.sim = &sim;
  env.cluster = &cluster;
  env.node = &cluster.node(0);
  env.bus = &metrics.node_bus(0);
  env.app = &app;
  env.topology = app.topology();
  // env.targets deliberately empty.
  PartiesController parties(env);
  MetricsSnapshot snap;
  snap.container = app.entry_container();
  snap.visits = 10;
  snap.avg_exec_time_ns = 1e9;  // absurdly slow — but no target to compare
  snap.avg_exec_metric_ns = 1e9;
  metrics.node_bus(0).publish(snap);
  parties.tick();
  EXPECT_EQ(app.service_container(0).cores(), 2);
}

TEST(EdgeCaseTest, EscalatorOnEmptyNode) {
  // A node with no containers must tick harmlessly (multi-node deployments
  // can leave nodes bare).
  Simulator sim(4);
  Cluster cluster(sim);
  cluster.add_node(64, 19);
  cluster.add_node(64, 19);  // empty node 1
  Network network(sim);
  MetricsPlane metrics(2);
  AppSpec spec;
  spec.name = "onenode";
  ServiceSpec s;
  s.name = "svc";
  spec.services = {s};
  Deployment dep;
  dep.node_of_service = {0};
  dep.initial_cores = {2};
  Application app(cluster, network, metrics, spec, dep);
  ControllerEnv env;
  env.sim = &sim;
  env.cluster = &cluster;
  env.node = &cluster.node(1);  // the EMPTY node
  env.bus = &metrics.node_bus(1);
  env.app = &app;
  env.topology = app.topology();
  Escalator esc(std::move(env));
  esc.tick();  // no snapshots, no containers: no-op
  EXPECT_TRUE(esc.last_scores().empty());
}

TEST(EdgeCaseTest, SurgeLongerThanPeriodClamps) {
  // spike_len == period: permanently surged — the pattern must behave as a
  // steady stream at the spike rate, not wedge.
  SpikePattern p =
      SpikePattern::surges(1000, 2.0, 10_s, 10_s, TimePoint::at(1_s));
  EXPECT_TRUE(p.in_spike(TimePoint::at(5_s)));
  EXPECT_TRUE(p.in_spike(TimePoint::at(15_s)));
  EXPECT_DOUBLE_EQ(p.rate_at(TimePoint::at(20_s)), 2000.0);
}

TEST(EdgeCaseTest, ExperimentWithTinyWindow) {
  ExperimentConfig cfg;
  cfg.workload = make_chain();
  cfg.controller = ControllerKind::kStatic;
  cfg.warmup = 100_ms;
  cfg.duration = 200_ms;
  cfg.surge_len = Duration::zero();
  const ExperimentResult r = run_experiment(cfg);
  EXPECT_GT(r.load.completed, 0u);
}

TEST(EdgeCaseTest, RepeatedProfilingIsDeterministic) {
  const ProfileResult a = profile_workload(make_hotel_recommend(), 1);
  const ProfileResult b = profile_workload(make_hotel_recommend(), 1);
  EXPECT_EQ(a.low_load_mean_latency, b.low_load_mean_latency);
  for (const auto& [id, t] : a.targets.per_container) {
    EXPECT_DOUBLE_EQ(t.expected_exec_metric_ns,
                     b.targets.of(id).expected_exec_metric_ns);
  }
}

TEST(EdgeCaseTest, GrantOnFullNodeReturnsZero) {
  Simulator sim(5);
  Cluster cluster(sim);
  cluster.add_node(21, 19);  // 2 app cores total
  Container& c = cluster.add_container("c", 0, 2);
  EXPECT_EQ(cluster.node(0).free_cores(), 0);
  EXPECT_EQ(cluster.node(0).grant(&c, 4), 0);
  EXPECT_EQ(c.cores(), 2);
}

TEST(EdgeCaseTest, FrequencyBoundsRespectedUnderSpam) {
  Simulator sim(6);
  Cluster cluster(sim);
  cluster.add_node(64, 19);
  Container& c = cluster.add_container("c", 0, 2);
  for (int i = 0; i < 100; ++i) {
    c.set_frequency(c.frequency() + 500);
  }
  EXPECT_EQ(c.frequency(), kDvfs.max_mhz);
  for (int i = 0; i < 100; ++i) {
    c.set_frequency(c.frequency() - 500);
  }
  EXPECT_EQ(c.frequency(), kDvfs.min_mhz);
}

}  // namespace
}  // namespace sg
