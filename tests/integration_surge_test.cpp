// End-to-end controller behaviour on real workloads (slow-ish tests, each
// runs a full shortened experiment). These pin the qualitative claims of
// the paper's evaluation that every refactor must preserve.
#include <gtest/gtest.h>

#include "core/experiment.hpp"

namespace sg {
namespace {

using namespace sg::literals;

ExperimentConfig surge_config(const WorkloadInfo& w, ControllerKind kind) {
  ExperimentConfig cfg;
  cfg.workload = w;
  cfg.controller = kind;
  cfg.warmup = 3_s;
  cfg.duration = 10_s;
  cfg.surge_mult = 1.75;
  cfg.surge_len = 2_s;
  cfg.surge_period = 5_s;
  cfg.seed = 31;
  return cfg;
}

class SurgeOrderingTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SurgeOrderingTest, SurgeGuardBeatsPartiesOnViolationVolume) {
  const WorkloadInfo w = *workload_by_name(GetParam());
  const ProfileResult profile = profile_workload(w, 1);
  const ExperimentResult parties =
      run_experiment(surge_config(w, ControllerKind::kParties), profile);
  const ExperimentResult sg_res =
      run_experiment(surge_config(w, ControllerKind::kSurgeGuard), profile);
  EXPECT_LT(sg_res.load.violation_volume_ms_s,
            parties.load.violation_volume_ms_s)
      << "workload " << w.spec.name;
}

TEST_P(SurgeOrderingTest, ThroughputPreservedByAllControllers) {
  const WorkloadInfo w = *workload_by_name(GetParam());
  const ProfileResult profile = profile_workload(w, 1);
  for (ControllerKind kind :
       {ControllerKind::kParties, ControllerKind::kSurgeGuard}) {
    const ExperimentResult r = run_experiment(surge_config(w, kind), profile);
    // Offered load over the window is ~base*(1 + 0.75*0.4); controllers must
    // not collapse goodput. SurgeGuard is held to a tighter bound; Parties
    // legitimately carries un-drained backlog at the window edge under this
    // aggressive 40%-duty surge pattern.
    const double floor_frac =
        kind == ControllerKind::kSurgeGuard ? 0.9 : 0.8;
    EXPECT_GT(r.load.throughput_rps, floor_frac * w.base_rate_rps)
        << to_string(kind) << " on " << w.spec.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, SurgeOrderingTest,
                         ::testing::Values("chain", "readUserTimeline",
                                           "recommendHotel"));

TEST(SurgeIntegrationTest, CaladanBlindOnConnectionPerRequest) {
  // The paper's hotelReservation result: CaladanAlgo's queue signal never
  // fires without pools, so it behaves like the static allocation while
  // SurgeGuard mitigates.
  const WorkloadInfo w = make_hotel_recommend();
  const ProfileResult profile = profile_workload(w, 1);
  const ExperimentResult caladan =
      run_experiment(surge_config(w, ControllerKind::kCaladan), profile);
  const ExperimentResult stat =
      run_experiment(surge_config(w, ControllerKind::kStatic), profile);
  const ExperimentResult sg_res =
      run_experiment(surge_config(w, ControllerKind::kSurgeGuard), profile);
  // Caladan roughly tracks static (no upscaling happened)...
  EXPECT_GT(caladan.load.violation_volume_ms_s,
            0.5 * stat.load.violation_volume_ms_s);
  // ...and is much worse than SurgeGuard.
  EXPECT_GT(caladan.load.violation_volume_ms_s,
            2.0 * sg_res.load.violation_volume_ms_s);
  // But it also spends no more energy than static.
  EXPECT_LE(caladan.energy_joules, stat.energy_joules * 1.05);
}

TEST(SurgeIntegrationTest, FirstResponderQuietAtSteadyState) {
  // No surge -> per-packet slack must never fire (paper: FirstResponder
  // does not change the steady-state load-latency curve).
  const WorkloadInfo w = make_chain();
  const ProfileResult profile = profile_workload(w, 1);
  ExperimentConfig cfg = surge_config(w, ControllerKind::kSurgeGuard);
  cfg.surge_len = Duration::zero();  // steady
  const ExperimentResult r = run_experiment(cfg, profile);
  EXPECT_EQ(r.fr_violations, 0u);
  EXPECT_EQ(r.fr_boosts, 0u);
  EXPECT_DOUBLE_EQ(r.load.violation_volume_ms_s, 0.0);
}

TEST(SurgeIntegrationTest, FirstResponderFiresDuringSurges) {
  const WorkloadInfo w = make_chain();
  const ProfileResult profile = profile_workload(w, 1);
  const ExperimentResult r =
      run_experiment(surge_config(w, ControllerKind::kSurgeGuard), profile);
  EXPECT_GT(r.fr_violations, 0u);
  EXPECT_GT(r.fr_boosts, 0u);
  EXPECT_GT(r.fr_packets, 100000u);  // every packet is inspected
}

TEST(SurgeIntegrationTest, EscalatorCloseToFullSurgeGuardOnLongSurges) {
  // Paper §VI-B: "<0.3% performance difference between Escalator and
  // SurgeGuard" for 2s surges. We allow a loose factor - the point is that
  // the fast path is NOT the main contributor for long surges.
  const WorkloadInfo w = make_chain();
  const ProfileResult profile = profile_workload(w, 1);
  const ExperimentResult esc =
      run_experiment(surge_config(w, ControllerKind::kEscalator), profile);
  const ExperimentResult sg_res =
      run_experiment(surge_config(w, ControllerKind::kSurgeGuard), profile);
  const ExperimentResult parties =
      run_experiment(surge_config(w, ControllerKind::kParties), profile);
  // Escalator alone already captures most of the benefit vs Parties.
  EXPECT_LT(esc.load.violation_volume_ms_s,
            0.5 * parties.load.violation_volume_ms_s);
  // And the full SurgeGuard is at least as good as Escalator alone.
  EXPECT_LE(sg_res.load.violation_volume_ms_s,
            esc.load.violation_volume_ms_s * 1.1);
}

TEST(SurgeIntegrationTest, CoreLedgerNeverOversubscribed) {
  // Failure-injection style sweep: run each controller and assert the node
  // ledger invariant held throughout (free >= 0 is asserted inside Node;
  // here we check the observable end state).
  const WorkloadInfo w = make_social_read_user_timeline();
  const ProfileResult profile = profile_workload(w, 1);
  for (ControllerKind kind :
       {ControllerKind::kParties, ControllerKind::kCaladan,
        ControllerKind::kSurgeGuard}) {
    ExperimentConfig cfg = surge_config(w, kind);
    const ExperimentResult r = run_experiment(cfg, profile);
    // Sum of allocations never exceeds the node's app cores at any change
    // point of any service (the sum is constant in between).
    const int app_cores =
        static_cast<int>(std::ceil(w.total_initial_cores() * 1.5));
    for (const ServiceTimeline& changed : r.timelines) {
      for (const StepTimeline::Point& p : changed.cores.points()) {
        double total = 0;
        for (const ServiceTimeline& service : r.timelines) {
          total += service.cores.at(p.time);
        }
        ASSERT_LE(total, app_cores + 1e-9) << to_string(kind);
        ASSERT_GE(total, w.spec.services.size());  // every container >= 1 core
      }
    }
  }
}

}  // namespace
}  // namespace sg
