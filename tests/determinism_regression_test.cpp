// Determinism regression gate (DESIGN.md §7): for a pinned config and seed,
// repeated runs must be BIT-identical — same violation volume, same latency
// percentiles, same event count, byte-identical Chrome-trace export. This is
// the runtime half of the determinism firewall: sg-lint and the poison
// header keep order-unstable constructs out of the tree, and this test
// catches anything they cannot see (logic that is order-stable in syntax
// but stateful across runs).
//
// The config pins a surge run with tracing, faults disabled, and the full
// controller stack, so the comparison covers the controller decision loops,
// the metrics bus, the network, and the trace exporter end to end.
#include <gtest/gtest.h>

#include <string>

#include "core/experiment.hpp"
#include "trace/export.hpp"

namespace sg {
namespace {

ExperimentConfig pinned_config() {
  ExperimentConfig cfg;
  cfg.workload = make_chain();
  cfg.controller = ControllerKind::kSurgeGuard;
  cfg.warmup = 1 * kSecond;
  cfg.duration = 4 * kSecond;
  cfg.seed = 20240814;
  cfg.surge_mult = 2.0;
  cfg.surge_len = 500 * kMillisecond;
  cfg.surge_period = 2 * kSecond;
  cfg.trace_enabled = true;
  cfg.trace_sample = 0.5;
  cfg.trace_capacity = 1u << 15;
  return cfg;
}

TEST(DeterminismRegressionTest, ThreeRunsBitIdenticalVVAndTrace) {
  const ExperimentResult first = run_experiment(pinned_config());
  ASSERT_TRUE(first.trace.has_value());
  const std::string first_json = chrome_trace_json(*first.trace);
  ASSERT_GT(first_json.size(), 1000u);
  ASSERT_GT(first.load.completed, 0u);

  for (int run = 2; run <= 3; ++run) {
    const ExperimentResult r = run_experiment(pinned_config());
    SCOPED_TRACE("repetition " + std::to_string(run));

    // VV and every load-side number: exact, not approximate.
    EXPECT_EQ(r.load.violation_volume_ms_s, first.load.violation_volume_ms_s);
    EXPECT_EQ(r.load.issued, first.load.issued);
    EXPECT_EQ(r.load.completed, first.load.completed);
    EXPECT_EQ(r.load.p50, first.load.p50);
    EXPECT_EQ(r.load.p98, first.load.p98);
    EXPECT_EQ(r.load.p99, first.load.p99);
    EXPECT_EQ(r.load.max_latency, first.load.max_latency);

    // Simulation-wide counters: one diverging event shifts these.
    EXPECT_EQ(r.events_processed, first.events_processed);
    EXPECT_EQ(r.fr_packets, first.fr_packets);
    EXPECT_EQ(r.fr_violations, first.fr_violations);
    EXPECT_EQ(r.fr_boosts, first.fr_boosts);

    // Exact FP equality on accumulated metrics: any hash-order accumulation
    // shows up here even when the totals agree to many digits.
    EXPECT_EQ(r.avg_cores, first.avg_cores);
    EXPECT_EQ(r.energy_joules, first.energy_joules);

    // Byte-identical trace export: spans, decisions, and ordering.
    ASSERT_TRUE(r.trace.has_value());
    EXPECT_EQ(chrome_trace_json(*r.trace), first_json);
  }
}

// The profile step (low-load calibration) feeds every controller's targets;
// if it drifts between runs, everything downstream drifts with it.
TEST(DeterminismRegressionTest, ProfilingIsRunToRunStable) {
  const ExperimentConfig cfg = pinned_config();
  const ProfileResult a = profile_workload(cfg.workload, cfg.nodes);
  const ProfileResult b = profile_workload(cfg.workload, cfg.nodes);
  EXPECT_EQ(a.low_load_mean_latency, b.low_load_mean_latency);
  EXPECT_EQ(a.low_load_p98, b.low_load_p98);
}

}  // namespace
}  // namespace sg
