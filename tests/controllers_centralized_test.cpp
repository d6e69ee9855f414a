#include "controllers/centralized.hpp"

#include <gtest/gtest.h>

#include "controller_test_util.hpp"
#include "core/experiment.hpp"

namespace sg {
namespace {

using testutil::ControllerTestbed;
using namespace sg::literals;

TEST(CentralizedMLTest, DecisionsApplyAfterInferenceLatency) {
  ControllerTestbed tb;
  ControllerEnv env = tb.env(300.0);
  CentralizedMLController ml(tb.sim, tb.cluster, tb.metrics, env.targets);
  // Saturate c1 so its demand estimate exceeds its allocation.
  for (int i = 0; i < 8; ++i) tb.c1().submit(1e12, []() {});
  tb.sim.run_until(TimePoint::at(500 * kMillisecond));
  tb.publish(tb.c1(), 900.0, 900.0);
  ml.tick();  // snapshot now, decision lands kInferenceLatency later
  tb.sim.run_until(tb.sim.now() +
                   CentralizedMLController::kInferenceLatency -
                   Duration::ns(1));
  EXPECT_EQ(tb.c1().cores(), 2);  // not yet
  tb.sim.run_until(tb.sim.now() + Duration::ns(1));
  EXPECT_GT(tb.c1().cores(), 2);  // applied
}

TEST(CentralizedMLTest, RightsizesIdleContainersDown) {
  ControllerTestbed tb;
  ControllerEnv env = tb.env(300.0);
  CentralizedMLController ml(tb.sim, tb.cluster, tb.metrics, env.targets);
  tb.c1().set_cores(8);  // grossly oversized and idle
  tb.sim.run_until(TimePoint::at(1_s));
  tb.publish(tb.c1(), 100.0, 100.0);
  tb.publish(tb.c2(), 100.0, 100.0);
  ml.tick();  // establishes the busy baseline
  tb.sim.run_until(tb.sim.now() + 1_s);
  ml.tick();  // second snapshot has a real (idle) busy window
  tb.sim.run_until(tb.sim.now() + 300 * kMillisecond);
  EXPECT_LT(tb.c1().cores(), 8);
}

TEST(CentralizedMLTest, NeverBelowOneCore) {
  ControllerTestbed tb;
  ControllerEnv env = tb.env(300.0);
  CentralizedMLController ml(tb.sim, tb.cluster, tb.metrics, env.targets);
  tb.sim.run_until(TimePoint::at(1_s));
  ml.tick();
  tb.sim.run_until(tb.sim.now() + 1_s);
  ml.tick();
  tb.sim.run_until(tb.sim.now() + 300 * kMillisecond);
  EXPECT_GE(tb.c1().cores(), 1);
  EXPECT_GE(tb.c2().cores(), 1);
}

TEST(CentralizedMLTest, SteadyStateLeanerThanParties) {
  // The ML-class controller's selling point: tight steady-state allocation.
  const WorkloadInfo w = make_chain();
  const ProfileResult profile = profile_workload(w, 1);
  ExperimentConfig cfg;
  cfg.workload = w;
  cfg.surge_len = Duration::zero();  // steady state only
  cfg.warmup = 3_s;
  cfg.duration = 10_s;
  cfg.controller = ControllerKind::kCentralizedML;
  const ExperimentResult ml = run_experiment(cfg, profile);
  EXPECT_LE(ml.avg_cores, static_cast<double>(w.total_initial_cores()) + 0.5);
  EXPECT_GT(ml.load.throughput_rps, 0.95 * w.base_rate_rps);
}

TEST(CentralizedMLTest, TooSlowForShortSurges) {
  // A 500ms surge is over before the >1s-cadence controller can respond;
  // SurgeGuard handles it. This is Table I's core trade-off.
  const WorkloadInfo w = make_chain();
  const ProfileResult profile = profile_workload(w, 1);
  ExperimentConfig cfg;
  cfg.workload = w;
  cfg.warmup = 3_s;
  cfg.duration = 10_s;
  cfg.surge_mult = 1.75;
  cfg.surge_len = 500 * kMillisecond;
  cfg.surge_period = 5_s;
  cfg.controller = ControllerKind::kCentralizedML;
  const ExperimentResult ml = run_experiment(cfg, profile);
  cfg.controller = ControllerKind::kSurgeGuard;
  const ExperimentResult sg_res = run_experiment(cfg, profile);
  EXPECT_GT(ml.load.violation_volume_ms_s,
            2.0 * sg_res.load.violation_volume_ms_s);
}

TEST(CentralizedMLTest, HybridKeepsBothBenefits) {
  // Paper §VII: ML for steady-state rightsizing + SurgeGuard for surges.
  const WorkloadInfo w = make_chain();
  const ProfileResult profile = profile_workload(w, 1);
  ExperimentConfig cfg;
  cfg.workload = w;
  cfg.warmup = 3_s;
  cfg.duration = 10_s;
  cfg.surge_mult = 1.75;
  cfg.surge_len = 1_s;
  cfg.surge_period = 5_s;

  cfg.controller = ControllerKind::kCentralizedML;
  const ExperimentResult ml = run_experiment(cfg, profile);
  cfg.controller = ControllerKind::kMLPlusSurgeGuard;
  const ExperimentResult hybrid = run_experiment(cfg, profile);
  // The hybrid's surge response is far better than ML alone...
  EXPECT_LT(hybrid.load.violation_volume_ms_s,
            0.5 * ml.load.violation_volume_ms_s);
  // ...and it has a working fast path.
  EXPECT_GT(hybrid.fr_packets, 0u);
}

}  // namespace
}  // namespace sg
