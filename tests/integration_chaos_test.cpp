// End-to-end chaos runs: SurgeGuard under packet loss and node slowdown
// with RPC retransmission enabled. Pins the recovery story: every issued
// request drains (zero stranded), the tail stays bounded, and the same run
// without retries demonstrably strands requests — which is why the
// retransmission layer exists.
#include <gtest/gtest.h>

#include "core/experiment.hpp"

namespace sg {
namespace {

using namespace sg::literals;

// 10% loss for 1.5s plus one 4x node slowdown for 500ms, both inside the
// measurement window. No load surge: the disturbance is the fault.
constexpr const char* kChaosPlan =
    "drop:start_ms=3000,len_ms=1500,rate=0.1;"
    "slow:node=0,start_ms=5000,len_ms=500,factor=0.25";

ExperimentConfig chaos_config(bool faults, bool retry) {
  ExperimentConfig cfg;
  cfg.workload = make_chain();
  cfg.controller = ControllerKind::kSurgeGuard;
  cfg.warmup = 2_s;
  cfg.duration = 6_s;
  cfg.surge_len = Duration::zero();
  cfg.seed = 31;
  if (faults) {
    std::string error;
    const auto plan = FaultPlan::parse(kChaosPlan, &error);
    EXPECT_TRUE(plan.has_value()) << error;
    cfg.fault_plan = *plan;
  }
  cfg.rpc_retry.enabled = retry;
  cfg.drain = 6_s;
  return cfg;
}

TEST(IntegrationChaosTest, RetriesRecoverEveryRequest) {
  const ProfileResult profile = profile_workload(make_chain(), 1);
  const ExperimentResult r =
      run_experiment(chaos_config(/*faults=*/true, /*retry=*/true), profile);

  // The faults actually bit.
  EXPECT_GT(r.faults.packets_dropped, 0u);
  EXPECT_EQ(r.faults.node_slowdowns, 1u);
  // Both retransmission layers worked: lost child RPCs were retried inside
  // the app, lost client requests were retried by the generator.
  EXPECT_GT(r.app_rpc_retries, 0u);
  EXPECT_GT(r.load.retries, 0u);
  // Recovery is complete: conservation holds, nothing strands, nothing is
  // abandoned.
  EXPECT_GT(r.load.issued, 0u);
  EXPECT_EQ(r.load.issued,
            r.load.completed_total + r.load.dropped + r.load.outstanding);
  EXPECT_EQ(r.load.outstanding, 0u);
  EXPECT_EQ(r.load.dropped, 0u);
  EXPECT_EQ(r.load.completed_total, r.load.issued);
}

TEST(IntegrationChaosTest, TailBoundedVersusNoFaultBaseline) {
  const ProfileResult profile = profile_workload(make_chain(), 1);
  const ExperimentResult base =
      run_experiment(chaos_config(/*faults=*/false, /*retry=*/true), profile);
  const ExperimentResult chaos =
      run_experiment(chaos_config(/*faults=*/true, /*retry=*/true), profile);

  // Fault-free with retransmission enabled is quiet: the retry layer alone
  // must not perturb a healthy system.
  EXPECT_EQ(base.faults.packets_dropped, 0u);
  EXPECT_EQ(base.load.retries, 0u);
  EXPECT_EQ(base.app_rpc_retries, 0u);
  EXPECT_EQ(base.app_stray_responses, 0u);
  EXPECT_DOUBLE_EQ(base.load.violation_volume_ms_s, 0.0);

  // Chaos inflates the tail (a dropped packet costs at least one timeout)
  // but stays finite and bounded: the system recovers within the run
  // rather than collapsing into a retry storm.
  EXPECT_GT(chaos.load.p99, base.load.p99);
  EXPECT_LT(chaos.load.p99, 5_s);
  EXPECT_LT(chaos.load.max_latency, chaos.measure_end.since_origin() + 6_s);
  // Some backlogged completions slide past measure_end into the drain (they
  // still complete — the zero-stranded test pins that), so in-window
  // goodput dips but must not collapse.
  EXPECT_GT(chaos.load.throughput_rps, 0.7 * base.load.throughput_rps);
}

TEST(IntegrationChaosTest, WithoutRetriesLossStrandsRequests) {
  const ProfileResult profile = profile_workload(make_chain(), 1);
  const ExperimentResult r =
      run_experiment(chaos_config(/*faults=*/true, /*retry=*/false), profile);
  // Same faults, no retransmission: dropped packets strand their requests
  // forever. This is the failure mode the retry layer closes.
  EXPECT_GT(r.faults.packets_dropped, 0u);
  EXPECT_GT(r.load.outstanding, 0u);
  EXPECT_EQ(r.load.issued,
            r.load.completed_total + r.load.dropped + r.load.outstanding);
}

}  // namespace
}  // namespace sg
