// Trace-driven regression gate: for a pinned config and seed, the
// per-service latency decomposition (exec / cpu-queue / conn-wait /
// downstream fractions and the visit count) must match golden values.
//
// The determinism gate (determinism_regression_test) catches NON-determinism
// — a run that differs from the previous run. This gate catches determinism
// with the WRONG numbers: a change that shifts where request time actually
// goes (scheduler accounting, pool sizing, network latency model, span
// attribution) reproduces perfectly yet silently rewrites the paper's
// Fig. 5-style story. Drift beyond the tolerances below means either a bug
// or an intentional behavior change; when intentional, run
// ./build/tests/trace_breakdown_gate_test with the two flags
//
//   --gtest_also_run_disabled_tests --gtest_filter='*PrintGolden*'
//
// and paste the printed table over kGolden.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "trace/export.hpp"

namespace sg {
namespace {

/// Pinned 4-node surge run with full tracing. Must not change without
/// regenerating the goldens.
ExperimentConfig gate_config() {
  ExperimentConfig cfg;
  cfg.workload = make_chain();
  cfg.controller = ControllerKind::kSurgeGuard;
  cfg.nodes = 4;
  cfg.warmup = 1 * kSecond;
  cfg.duration = 4 * kSecond;
  cfg.seed = 424242;
  cfg.surge_mult = 2.0;
  cfg.surge_len = 500 * kMillisecond;
  cfg.surge_period = 2 * kSecond;
  cfg.trace_enabled = true;
  cfg.trace_sample = 1.0;
  cfg.trace_capacity = 1u << 15;
  return cfg;
}

struct GoldenRow {
  const char* service;
  std::uint64_t visits;
  double avg_visit_us;
  double exec_frac;
  double cpu_queue_frac;
  double conn_wait_frac;
  double downstream_frac;
};

// Golden decomposition for gate_config() (generated from a verified run;
// see the header comment for the regeneration recipe).
const GoldenRow kGolden[] = {
    {"CHAIN/chain-0", 32768, 9010.687, 0.014, 0.213, 0.685, 0.088},
    {"CHAIN/chain-1", 32768, 712.286, 0.141, 0.001, 0.026, 0.833},
    {"CHAIN/chain-2", 32768, 513.259, 0.195, 0.001, 0.016, 0.788},
    {"CHAIN/chain-3", 32768, 324.514, 0.309, 0.001, 0.046, 0.644},
    {"CHAIN/chain-4", 32768, 129.172, 0.837, 0.163, 0.000, 0.000},
};

// Tolerances: fractions are of visit wall time (absolute drift), the mean
// visit wall is relative, visit counts are exact (the run is deterministic
// and every request is traced).
constexpr double kFracTol = 0.02;
constexpr double kAvgVisitRelTol = 0.05;

TEST(TraceBreakdownGate, PinnedRunMatchesGolden) {
  const ExperimentResult r = run_experiment(gate_config());
  ASSERT_TRUE(r.trace.has_value());
  const std::vector<BreakdownRow> rows = latency_breakdown(*r.trace);
  ASSERT_EQ(rows.size(), std::size(kGolden));

  for (std::size_t i = 0; i < rows.size(); ++i) {
    const BreakdownRow& row = rows[i];
    const GoldenRow& gold = kGolden[i];
    SCOPED_TRACE("service " + row.service);
    EXPECT_EQ(row.service, gold.service);
    EXPECT_EQ(row.visits, gold.visits);
    EXPECT_NEAR(row.avg_visit_us, gold.avg_visit_us,
                gold.avg_visit_us * kAvgVisitRelTol);
    EXPECT_NEAR(row.exec_frac, gold.exec_frac, kFracTol);
    EXPECT_NEAR(row.cpu_queue_frac, gold.cpu_queue_frac, kFracTol);
    EXPECT_NEAR(row.conn_wait_frac, gold.conn_wait_frac, kFracTol);
    EXPECT_NEAR(row.downstream_frac, gold.downstream_frac, kFracTol);
  }
}

// Regeneration helper (disabled; see header comment). Prints kGolden rows
// for the current build.
TEST(TraceBreakdownGate, DISABLED_PrintGolden) {
  const ExperimentResult r = run_experiment(gate_config());
  ASSERT_TRUE(r.trace.has_value());
  for (const BreakdownRow& row : latency_breakdown(*r.trace)) {
    std::printf("    {\"%s\", %llu, %.3f, %.3f, %.3f, %.3f, %.3f},\n",
                row.service.c_str(),
                static_cast<unsigned long long>(row.visits), row.avg_visit_us,
                row.exec_frac, row.cpu_queue_frac, row.conn_wait_frac,
                row.downstream_frac);
  }
}

}  // namespace
}  // namespace sg
