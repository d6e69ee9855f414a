// Load-latency properties of the calibrated operating points: the artifact
// places base rates "slightly below the knee"; these parameterized sweeps
// pin that calibration for every Table III workload so a model or catalog
// change that moves the knee fails loudly.
#include <gtest/gtest.h>

#include "core/experiment.hpp"

namespace sg {
namespace {

using namespace sg::literals;

ExperimentResult run_steady(const WorkloadInfo& w, double rate_frac,
                            const ProfileResult& profile) {
  ExperimentConfig cfg;
  cfg.workload = w;
  cfg.controller = ControllerKind::kStatic;
  cfg.pattern_override = SpikePattern::steady(w.base_rate_rps * rate_frac);
  cfg.warmup = 2_s;
  cfg.duration = 5_s;
  cfg.seed = 23;
  return run_experiment(cfg, profile);
}

class KneeTest : public ::testing::TestWithParam<const char*> {};

TEST_P(KneeTest, LatencyMonotoneInLoad) {
  const WorkloadInfo w = *workload_by_name(GetParam());
  const ProfileResult profile = profile_workload(w, 1);
  double prev_mean = 0.0;
  for (double frac : {0.3, 0.6, 1.0, 1.3}) {
    const ExperimentResult r = run_steady(w, frac, profile);
    EXPECT_GE(r.load.mean_latency_ns, prev_mean * 0.98)
        << w.spec.name << " at " << frac;  // 2% tolerance for noise
    prev_mean = r.load.mean_latency_ns;
  }
}

TEST_P(KneeTest, BaseRateIsBelowTheKnee) {
  // At the calibrated base rate the system is stable and its tail is close
  // to the low-load tail; at 1.7x base, some service saturates (util > 1)
  // and the tail blows past it. (With wrk2-style deterministic pacing the
  // knee sits close to the saturation point.)
  const WorkloadInfo w = *workload_by_name(GetParam());
  const ProfileResult profile = profile_workload(w, 1);
  const ExperimentResult at_base = run_steady(w, 1.0, profile);
  const ExperimentResult past = run_steady(w, 1.7, profile);
  // Stable at base: throughput tracks the offered rate.
  EXPECT_GT(at_base.load.throughput_rps, 0.98 * w.base_rate_rps)
      << w.spec.name;
  // Tail at base within 3x of the low-load tail (comfortably under QoS)...
  EXPECT_LT(at_base.load.p98, 3 * profile.low_load_p98) << w.spec.name;
  // ...and 1.7x base pushes the tail at least 3x higher than at base.
  EXPECT_GT(past.load.p98, 3 * at_base.load.p98) << w.spec.name;
}

INSTANTIATE_TEST_SUITE_P(TableIII, KneeTest,
                         ::testing::Values("chain", "readUserTimeline",
                                           "composePost", "searchHotel",
                                           "recommendHotel"));

}  // namespace
}  // namespace sg
