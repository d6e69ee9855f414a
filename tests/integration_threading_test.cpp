// Integration: the paper's Fig. 5 — how the threading model shapes what a
// surge looks like to the metrics, end-to-end through the real application
// model (no crafted snapshots).
#include <gtest/gtest.h>

#include "app/application.hpp"
#include "workload/load_generator.hpp"

namespace sg {
namespace {

using namespace sg::literals;

struct Fig5Testbed {
  Simulator sim{21};
  Cluster cluster{sim};
  Network network{sim};
  MetricsPlane metrics{1};
  std::unique_ptr<Application> app;
  std::unique_ptr<LoadGenerator> gen;

  /// Two services c1 -> c2; pool_size < 0 = connection-per-request.
  Fig5Testbed(int pool_size, double surge_mult) {
    cluster.add_node(64, 19);
    AppSpec spec;
    spec.name = "fig5";
    ServiceSpec c1, c2;
    c1.name = "c1";
    c1.work_ns_mean = 100'000;
    c1.work_sigma = 0.1;
    c1.children = {1};
    c2.name = "c2";
    c2.work_ns_mean = 100'000;
    c2.work_sigma = 0.1;
    spec.services = {c1, c2};
    spec.threading = pool_size < 0 ? ThreadingModel::kConnectionPerRequest
                                   : ThreadingModel::kFixedThreadPool;
    spec.pool_sizes = {{pool_size}, {}};
    // Fig. 5's premise: c1 has CPU headroom (the surge reaches its pool),
    // c2 is the bottleneck. c1: 4 cores (0.33 util at base), c2: 2 cores
    // (0.65 util at base; 1.04 during a 1.6x surge).
    Deployment dep;
    dep.node_of_service = {0, 0};
    dep.initial_cores = {4, 2};
    app = std::make_unique<Application>(cluster, network, metrics,
                                        std::move(spec), dep);
    LoadGenOptions opts;
    // One long surge so window averages during the surge are unambiguous.
    opts.pattern = SpikePattern::surges(13000, surge_mult, 2_s, 60_s,
                                        TimePoint::at(1_s));
    opts.qos = 5_ms;
    opts.warmup = 500_ms;
    opts.duration = 2_s;
    gen = std::make_unique<LoadGenerator>(sim, network, *app, opts);
  }

  /// Runs through the surge and returns per-container lifetime-window
  /// snapshots collected DURING the surge (1s..3s).
  std::pair<MetricsSnapshot, MetricsSnapshot> run_and_snapshot() {
    gen->start();
    sim.run_until(TimePoint::at(1_s));  // pre-surge
    // Reset windows so the snapshot covers surge time only.
    auto& m1 = const_cast<ContainerRuntimeMetrics&>(
        app->runtime_metrics(app->service_container(0).id()));
    auto& m2 = const_cast<ContainerRuntimeMetrics&>(
        app->runtime_metrics(app->service_container(1).id()));
    m1.flush(sim.now());
    m2.flush(sim.now());
    sim.run_until(TimePoint{2'800'000'000});  // most of the surge
    return {m1.flush(sim.now()), m2.flush(sim.now())};
  }
};

TEST(ThreadingModelTest, ConnectionPerRequestSurgeSlowsBothServices) {
  // Fig. 5(a): thread-per-request -> the higher request rate reaches c2,
  // raising execMetric at BOTH services.
  Fig5Testbed calm(-1, 1.0);
  auto [c1_calm, c2_calm] = calm.run_and_snapshot();
  Fig5Testbed surged(-1, 1.6);
  auto [c1_surge, c2_surge] = surged.run_and_snapshot();

  ASSERT_TRUE(c1_surge.valid() && c2_surge.valid());
  // execMetric (own + downstream, no conn wait) rises at both services.
  EXPECT_GT(c1_surge.avg_exec_metric_ns, 1.3 * c1_calm.avg_exec_metric_ns);
  EXPECT_GT(c2_surge.avg_exec_metric_ns, 1.3 * c2_calm.avg_exec_metric_ns);
  // No pools -> no implicit queue -> queueBuildup stays ~1 at both.
  EXPECT_LT(c1_surge.queue_buildup, 1.05);
  EXPECT_LT(c2_surge.queue_buildup, 1.05);
}

TEST(ThreadingModelTest, FixedPoolHidesSurgeFromDownstream) {
  // Fig. 5(b): the pool caps concurrency into c2. The surge piles up as
  // connection waiting at c1 (queueBuildup >> 1) while c2's own execution
  // time stays near its pre-surge value.
  Fig5Testbed calm(4, 1.0);
  auto [c1_calm, c2_calm] = calm.run_and_snapshot();
  Fig5Testbed surged(4, 1.6);
  auto [c1_surge, c2_surge] = surged.run_and_snapshot();

  ASSERT_TRUE(c1_surge.valid() && c2_surge.valid());
  // Implicit queue at c1: conn wait dominates.
  EXPECT_GT(c1_surge.queue_buildup, 1.5);
  EXPECT_GT(c1_surge.avg_conn_wait_ns, 0.0);
  // c2 sees bounded concurrency (at most pool-size jobs): its own execution
  // grows by at most the pool-limited sharing factor, while c1's total
  // latency blows up with the unbounded implicit queue.
  const double c2_growth =
      c2_surge.avg_exec_metric_ns / c2_calm.avg_exec_metric_ns;
  const double c1_growth = c1_surge.avg_exec_time_ns / c1_calm.avg_exec_time_ns;
  EXPECT_LT(c2_growth, 3.0);
  EXPECT_GT(c1_growth, 5.0 * c2_growth);
  // And c2 itself records no queue buildup (the queue is invisible
  // downstream — the "hidden dependency").
  EXPECT_LT(c2_surge.queue_buildup, 1.1);
}

TEST(ThreadingModelTest, ExecMetricDiscountsConnWait) {
  // Under pool pressure, execTime at c1 >> execMetric at c1 (eq. 2).
  Fig5Testbed surged(4, 1.6);
  auto [c1_surge, c2_surge] = surged.run_and_snapshot();
  ASSERT_TRUE(c1_surge.valid());
  EXPECT_GT(c1_surge.avg_exec_time_ns,
            1.5 * c1_surge.avg_exec_metric_ns);
  (void)c2_surge;
}

}  // namespace
}  // namespace sg
