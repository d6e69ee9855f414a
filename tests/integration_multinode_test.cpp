// Multi-node decentralization: per-node controllers, per-node pools, and
// cross-node upscale hints riding on data packets (the paper's Fig. 1 / §IV
// claims).
#include <gtest/gtest.h>

#include "controllers/escalator.hpp"
#include "core/experiment.hpp"
#include "workload/load_generator.hpp"

namespace sg {
namespace {

using namespace sg::literals;

TEST(MultiNodeTest, RoundRobinPlacementSpansNodes) {
  const WorkloadInfo w = make_hotel_search();  // 12 services
  ExperimentConfig cfg;
  cfg.workload = w;
  cfg.nodes = 4;
  cfg.controller = ControllerKind::kStatic;
  cfg.warmup = 1_s;
  cfg.duration = 2_s;
  const ProfileResult profile = profile_workload(w, 4);
  const ExperimentResult r = run_experiment(cfg, profile);
  EXPECT_EQ(r.timelines.size(), 12u);
  EXPECT_GT(r.load.completed, 0u);
}

TEST(MultiNodeTest, CrossNodeHintPropagation) {
  // Build a two-node, two-service app directly: c1 on node 0, c2 on node 1.
  // An Escalator on node 0 detects queueBuildup at c1; the hint must reach
  // c2 on node 1 via pkt.upscale, and node 1's Escalator must act on it —
  // with no shared state between the two controllers.
  Simulator sim(5);
  Cluster cluster(sim);
  cluster.add_node(40, 19);
  cluster.add_node(40, 19);
  Network network(sim, {}, 2);
  MetricsPlane metrics(2);

  AppSpec spec;
  spec.name = "xnode";
  ServiceSpec s1, s2;
  s1.name = "c1";
  s1.work_ns_mean = 100'000;
  s1.work_sigma = 0;
  s1.children = {1};
  s2.name = "c2";
  s2.work_ns_mean = 100'000;
  s2.work_sigma = 0;
  spec.services = {s1, s2};
  spec.pool_sizes = {{4}, {}};
  Deployment dep;
  dep.node_of_service = {0, 1};
  dep.initial_cores = {2, 2};
  Application app(cluster, network, metrics, spec, dep);

  TargetMap targets;
  ContainerTargets t;
  t.expected_exec_metric_ns = 300'000.0;
  t.expected_time_from_start = Duration::ns(200'000);
  targets.per_container[0] = t;
  targets.per_container[1] = t;
  targets.expected_e2e_latency = Duration::ns(500'000);

  auto env_for = [&](int node) {
    ControllerEnv env;
    env.sim = &sim;
    env.cluster = &cluster;
    env.node = &cluster.node(node);
    env.bus = &metrics.node_bus(node);
    env.app = &app;
    env.topology = app.topology();
    env.targets = targets;
    return env;
  };
  Escalator esc0(env_for(0));
  Escalator esc1(env_for(1));

  // Node 0's bus reports a queueBuildup violation at c1.
  MetricsSnapshot snap;
  snap.container = 0;
  snap.window_end = sim.now();
  snap.visits = 50;
  snap.avg_exec_time_ns = 900'000;
  snap.avg_exec_metric_ns = 200'000;
  snap.queue_buildup = 4.5;
  metrics.node_bus(0).publish(snap);
  esc0.tick();
  // c1 must NOT be upscaled by its own node (Table II row 2: the candidates
  // are downstream), and c2 lives on another node — nothing local to do.
  EXPECT_EQ(cluster.container(0).cores(), 2);
  EXPECT_EQ(cluster.container(1).cores(), 2);

  // Run traffic so the hint piggybacks on real packets to node 1.
  network.register_client_receiver([](const RpcPacket&) {});
  for (int i = 0; i < 20; ++i) {
    RpcPacket pkt;
    pkt.request_id = static_cast<RequestId>(i + 1);
    pkt.dst_container = app.entry_container();
    pkt.dst_node = app.entry_node();
    pkt.start_time = sim.now();
    network.send(kClientNode, pkt);
  }
  sim.run_to_completion();

  // Node 1's runtime observed the hint; after it publishes, node 1's own
  // Escalator upscales c2 — purely from local state.
  ContainerRuntimeMetrics& m2 =
      const_cast<ContainerRuntimeMetrics&>(app.runtime_metrics(1));
  metrics.node_bus(1).publish(m2.flush(sim.now()));
  esc1.tick();
  EXPECT_GT(cluster.container(1).cores(), 2);
}

TEST(MultiNodeTest, PerNodePoolsAreIsolated) {
  // A violation on node 0 must never draw cores from node 1's pool.
  const WorkloadInfo w = make_chain();
  ExperimentConfig cfg;
  cfg.workload = w;
  cfg.nodes = 2;
  cfg.controller = ControllerKind::kSurgeGuard;
  cfg.warmup = 3_s;
  cfg.duration = 8_s;
  cfg.surge_mult = 1.75;
  cfg.surge_len = 2_s;
  const ProfileResult profile = profile_workload(w, 2);
  const ExperimentResult r = run_experiment(cfg, profile);

  // Per-node allocation never exceeds that node's app cores. Node sizing:
  // ceil(init_on_node * 1.5); services round-robin (0,2,4 -> node 0).
  int init_node0 = 0, init_node1 = 0;
  for (std::size_t i = 0; i < w.initial_cores.size(); ++i) {
    (i % 2 == 0 ? init_node0 : init_node1) += w.initial_cores[i];
  }
  const double cap0 = std::ceil(init_node0 * 1.5);
  const double cap1 = std::ceil(init_node1 * 1.5);
  // Node sums are constant between change points, so checking at every
  // change point of every service checks them at all times.
  for (const ServiceTimeline& changed : r.timelines) {
    for (const StepTimeline::Point& p : changed.cores.points()) {
      double total0 = 0, total1 = 0;
      for (std::size_t i = 0; i < r.timelines.size(); ++i) {
        (i % 2 == 0 ? total0 : total1) += r.timelines[i].cores.at(p.time);
      }
      ASSERT_LE(total0, cap0 + 1e-9);
      ASSERT_LE(total1, cap1 + 1e-9);
    }
  }
}

TEST(MultiNodeTest, SurgeGuardStillWinsAcrossNodes) {
  const WorkloadInfo w = make_social_read_user_timeline();
  ExperimentConfig cfg;
  cfg.workload = w;
  cfg.nodes = 2;
  cfg.warmup = 3_s;
  cfg.duration = 10_s;
  cfg.surge_mult = 1.75;
  cfg.surge_len = 2_s;
  cfg.surge_period = 5_s;
  const ProfileResult profile = profile_workload(w, 2);
  cfg.controller = ControllerKind::kParties;
  const ExperimentResult parties = run_experiment(cfg, profile);
  cfg.controller = ControllerKind::kSurgeGuard;
  const ExperimentResult sg_res = run_experiment(cfg, profile);
  EXPECT_LT(sg_res.load.violation_volume_ms_s,
            parties.load.violation_volume_ms_s);
}

}  // namespace
}  // namespace sg
