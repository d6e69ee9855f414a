// Experiment harness: profiling, end-to-end runs, determinism, sweeps.
// These are the slowest tests in the suite (~seconds): each runs a real,
// if shortened, simulation.
#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <string_view>

#include "common/stats.hpp"
#include "core/sweep.hpp"

namespace sg {
namespace {

using namespace sg::literals;

ExperimentConfig short_config(ControllerKind kind, std::uint64_t seed = 7) {
  ExperimentConfig cfg;
  cfg.workload = make_chain();
  cfg.controller = kind;
  cfg.warmup = 2_s;
  cfg.duration = 8_s;
  cfg.surge_mult = 1.75;
  cfg.surge_len = 1_s;
  cfg.surge_period = 4_s;
  cfg.seed = seed;
  return cfg;
}

TEST(ProfileTest, TargetsAreTwiceLowLoadValues) {
  const WorkloadInfo w = make_chain();
  const ProfileResult p2 = profile_workload(w, 1, 2.0);
  const ProfileResult p4 = profile_workload(w, 1, 4.0);
  ASSERT_EQ(p2.targets.per_container.size(), w.spec.services.size());
  for (const auto& [id, t] : p2.targets.per_container) {
    const auto& t4 = p4.targets.of(id);
    EXPECT_NEAR(t4.expected_exec_metric_ns, 2.0 * t.expected_exec_metric_ns,
                t.expected_exec_metric_ns * 0.01);
  }
  EXPECT_GT(p2.low_load_mean_latency, Duration::zero());
  EXPECT_GE(p2.low_load_p98, p2.low_load_mean_latency);
}

TEST(ProfileTest, DeeperContainersExpectLaterArrival) {
  // expectedTimeFromStart must grow along the chain.
  const ProfileResult p = profile_workload(make_chain(), 1);
  Duration prev = Duration::ns(-1);
  for (int i = 0; i < 5; ++i) {
    const Duration tfs = p.targets.of(i).expected_time_from_start;
    EXPECT_GT(tfs, prev) << "service " << i;
    prev = tfs;
  }
}

TEST(ExperimentTest, StaticRunProducesSaneResults) {
  const ExperimentResult r = run_experiment(short_config(ControllerKind::kStatic));
  EXPECT_GT(r.load.completed, 0u);
  EXPECT_GT(r.load.p98, Duration::zero());
  EXPECT_GT(r.avg_cores, 0.0);
  EXPECT_GT(r.energy_joules, 0.0);
  EXPECT_EQ(r.fr_boosts, 0u);  // no FirstResponder in a static run
  EXPECT_EQ(r.measure_start, TimePoint::at(2_s));
  EXPECT_EQ(r.measure_end, TimePoint::at(10_s));
}

TEST(ExperimentTest, StaticAllocationNeverChanges) {
  const ExperimentResult r =
      run_experiment(short_config(ControllerKind::kStatic));
  ASSERT_EQ(r.timelines.size(), 5u);
  for (const ServiceTimeline& service : r.timelines) {
    ASSERT_EQ(service.cores.points().size(), 1u) << service.name;
    EXPECT_DOUBLE_EQ(service.cores.current(), 2.0) << service.name;
  }
}

TEST(ExperimentTest, TimelinesAverageToAvgCores) {
  // The result's timelines are the exact record avg_cores is computed from.
  const ExperimentResult r =
      run_experiment(short_config(ControllerKind::kSurgeGuard));
  ASSERT_EQ(r.timelines.size(), 5u);
  double total = 0.0;
  bool any_change = false;
  for (const ServiceTimeline& service : r.timelines) {
    any_change = any_change || service.cores.points().size() > 1;
    total += service.cores.average(r.measure_start, r.measure_end);
  }
  EXPECT_TRUE(any_change) << "the surge run should move some allocation";
  EXPECT_DOUBLE_EQ(total, r.avg_cores);
}

TEST(ExperimentTest, DeterministicForSameSeed) {
  const ProfileResult profile = profile_workload(make_chain(), 1);
  const ExperimentConfig cfg = short_config(ControllerKind::kSurgeGuard, 13);
  const ExperimentResult a = run_experiment(cfg, profile);
  const ExperimentResult b = run_experiment(cfg, profile);
  EXPECT_EQ(a.load.completed, b.load.completed);
  EXPECT_DOUBLE_EQ(a.load.violation_volume_ms_s, b.load.violation_volume_ms_s);
  EXPECT_DOUBLE_EQ(a.avg_cores, b.avg_cores);
  EXPECT_DOUBLE_EQ(a.energy_joules, b.energy_joules);
  EXPECT_EQ(a.fr_boosts, b.fr_boosts);
}

TEST(ExperimentTest, SeedsChangeOutcomes) {
  const ProfileResult profile = profile_workload(make_chain(), 1);
  const ExperimentResult a =
      run_experiment(short_config(ControllerKind::kStatic, 1), profile);
  const ExperimentResult b =
      run_experiment(short_config(ControllerKind::kStatic, 2), profile);
  // Different seeds -> different service-time draws -> different results.
  EXPECT_NE(a.load.violation_volume_ms_s, b.load.violation_volume_ms_s);
}

TEST(ExperimentTest, SurgeGuardBeatsStaticOnSurges) {
  const ProfileResult profile = profile_workload(make_chain(), 1);
  const ExperimentResult stat =
      run_experiment(short_config(ControllerKind::kStatic), profile);
  const ExperimentResult sg_res =
      run_experiment(short_config(ControllerKind::kSurgeGuard), profile);
  EXPECT_LT(sg_res.load.violation_volume_ms_s,
            stat.load.violation_volume_ms_s);
  EXPECT_GT(sg_res.fr_packets, 0u);
}

TEST(ExperimentTest, MultiNodeRunWorks) {
  ExperimentConfig cfg = short_config(ControllerKind::kSurgeGuard);
  cfg.nodes = 2;
  const ProfileResult profile = profile_workload(cfg.workload, 2);
  const ExperimentResult r = run_experiment(cfg, profile);
  EXPECT_GT(r.load.completed, 0u);
  // Surges must still be contained reasonably with per-node controllers.
  EXPECT_GT(r.load.throughput_rps, 0.9 * cfg.workload.base_rate_rps);
}

TEST(ExperimentTest, PatternOverrideUsed) {
  ExperimentConfig cfg = short_config(ControllerKind::kStatic);
  cfg.pattern_override = SpikePattern::steady(cfg.workload.base_rate_rps * 0.5);
  const ProfileResult profile = profile_workload(cfg.workload, 1);
  const ExperimentResult r = run_experiment(cfg, profile);
  // Half rate, no surges -> zero violations under the generous QoS.
  EXPECT_DOUBLE_EQ(r.load.violation_volume_ms_s, 0.0);
  EXPECT_NEAR(r.load.throughput_rps, cfg.workload.base_rate_rps * 0.5,
              cfg.workload.base_rate_rps * 0.02);
}

TEST(ExperimentTest, Fig15VariantsWireEscalatorOptions) {
  // Fig. 15's middle bars run Escalator with one mechanism switched off, at
  // Parties' 500 ms cadence; the full Escalator ticks every 100 ms. Read
  // the wiring back from the decision audit of short traced surges.
  const ProfileResult profile = profile_workload(make_chain(), 1);
  struct Audit {
    int decisions = 0;
    int stamps = 0;
    int off_500ms = 0;  // decisions not on a multiple of 500 ms
    int off_100ms = 0;
  };
  const auto audit = [&](ControllerKind kind,
                         Escalator::Options escalator = {}) {
    ExperimentConfig cfg = short_config(kind);
    cfg.escalator = escalator;
    cfg.warmup = 1_s;
    cfg.duration = 3_s;
    cfg.surge_period = 2_s;
    cfg.trace_enabled = true;
    cfg.trace_sample = 0.0;  // the decision audit only
    cfg.trace_keep_violators = false;
    const ExperimentResult r = run_experiment(cfg, profile);
    Audit out;
    for (const DecisionEvent& d : r.trace->decisions) {
      if (std::string_view(d.controller) != "escalator") continue;
      ++out.decisions;
      if (d.kind == DecisionKind::kUpscaleStamp) ++out.stamps;
      if (d.at.since_origin() % 500_ms != Duration::zero()) ++out.off_500ms;
      if (d.at.since_origin() % 100_ms != Duration::zero()) ++out.off_100ms;
    }
    return out;
  };

  const Audit sens_only = audit(ControllerKind::kEscalatorSensOnly);
  EXPECT_GT(sens_only.decisions, 0);
  EXPECT_EQ(sens_only.stamps, 0);  // Parties' metric: no queueBuildup hints
  EXPECT_EQ(sens_only.off_500ms, 0);

  const Audit metrics_only = audit(ControllerKind::kEscalatorMetricsOnly);
  EXPECT_GT(metrics_only.stamps, 0);
  EXPECT_EQ(metrics_only.off_500ms, 0);

  const Audit full = audit(ControllerKind::kEscalator);
  EXPECT_GT(full.off_500ms, 0);
  EXPECT_EQ(full.off_100ms, 0);
  EXPECT_GT(full.stamps, 0);

  // ExperimentConfig::escalator reaches the Escalator the testbed builds: a
  // QUEUE_TH no queueBuildup reaches stamps no upscale hint.
  Escalator::Options deaf;
  deaf.queue_threshold = 1e9;
  const Audit no_hints = audit(ControllerKind::kEscalator, deaf);
  EXPECT_GT(no_hints.decisions, 0);
  EXPECT_EQ(no_hints.stamps, 0);
}

TEST(ExperimentTest, MakePatternDerivesSurges) {
  ExperimentConfig cfg = short_config(ControllerKind::kStatic);
  const SpikePattern p = cfg.make_pattern();
  EXPECT_TRUE(p.has_spikes());
  EXPECT_DOUBLE_EQ(p.spike_rate_rps, cfg.workload.base_rate_rps * 1.75);
  EXPECT_EQ(p.first_spike_at,
            TimePoint::at(cfg.warmup + cfg.first_surge_offset));
  cfg.surge_len = Duration::zero();
  EXPECT_FALSE(cfg.make_pattern().has_spikes());
}

TEST(SweepTest, TrimmedAggregation) {
  ExperimentConfig cfg = short_config(ControllerKind::kStatic);
  cfg.duration = 4_s;
  const ProfileResult profile = profile_workload(cfg.workload, 1);
  SweepOptions opts;
  opts.threads = 1;
  const RepStats stats =
      run_grid({{cfg, &profile, /*replications=*/5, /*trim=*/1}}, opts)
          .front();
  EXPECT_EQ(stats.replications(), 5u);
  EXPECT_DOUBLE_EQ(stats.vv, trimmed_mean(stats.violation_volume, 1));
  EXPECT_DOUBLE_EQ(stats.cores, trimmed_mean(stats.avg_cores, 1));
}

TEST(SweepTest, ParallelMatchesSerial) {
  // Replications are independent simulations; the thread count must not
  // change any number.
  ExperimentConfig cfg = short_config(ControllerKind::kParties);
  cfg.duration = 3_s;
  const ProfileResult profile = profile_workload(cfg.workload, 1);
  const std::vector<GridCell> cell = {{cfg, &profile, 3, 0}};
  SweepOptions serial;
  serial.threads = 1;
  SweepOptions parallel = serial;
  parallel.threads = 3;
  const RepStats a = run_grid(cell, serial).front();
  const RepStats b = run_grid(cell, parallel).front();
  ASSERT_EQ(a.violation_volume.size(), b.violation_volume.size());
  for (std::size_t i = 0; i < a.violation_volume.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.violation_volume[i], b.violation_volume[i]);
    EXPECT_DOUBLE_EQ(a.energy_joules[i], b.energy_joules[i]);
  }
}

TEST(SweepTest, GridMatchesPerCellSerial) {
  // One pool over (cell, replication) items must reproduce every cell's
  // serial run exactly, whatever the interleaving and however many
  // replications each cell takes.
  const ProfileResult chain_profile = profile_workload(make_chain(), 1);
  const WorkloadInfo read = make_social_read_user_timeline();
  const ProfileResult read_profile = profile_workload(read, 1);
  std::vector<GridCell> cells;
  for (ControllerKind kind :
       {ControllerKind::kSurgeGuard, ControllerKind::kCaladan}) {
    ExperimentConfig cfg = short_config(kind);
    cfg.duration = 2_s;
    cells.push_back({cfg, &chain_profile, 2, 0});
  }
  ExperimentConfig read_cfg = short_config(ControllerKind::kEscalatorMetricsOnly);
  read_cfg.workload = read;
  read_cfg.duration = 2_s;
  cells.push_back({read_cfg, &read_profile, 1, 0});

  SweepOptions pooled;
  pooled.threads = 4;
  pooled.seed0 = 5;
  const std::vector<RepStats> grid = run_grid(cells, pooled);
  ASSERT_EQ(grid.size(), cells.size());

  SweepOptions serial = pooled;
  serial.threads = 1;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    SCOPED_TRACE(c);
    const RepStats one = run_grid({cells[c]}, serial).front();
    ASSERT_EQ(grid[c].replications(),
              static_cast<std::size_t>(cells[c].replications));
    EXPECT_EQ(grid[c].violation_volume, one.violation_volume);
    EXPECT_EQ(grid[c].avg_cores, one.avg_cores);
    EXPECT_EQ(grid[c].energy_joules, one.energy_joules);
    EXPECT_EQ(grid[c].p98_ms, one.p98_ms);
    EXPECT_EQ(grid[c].vv, one.vv);
    EXPECT_EQ(grid[c].cores, one.cores);
    EXPECT_EQ(grid[c].energy, one.energy);
    EXPECT_EQ(grid[c].p98, one.p98);

    ExperimentConfig cfg = cells[c].config;
    cfg.seed = pooled.seed0;
    const ExperimentResult direct = run_experiment(cfg, *cells[c].profile);
    const ExperimentResult& first = grid[c].first;
    EXPECT_EQ(first.load.violation_volume_ms_s,
              direct.load.violation_volume_ms_s);
    EXPECT_EQ(first.fr_boosts, direct.fr_boosts);
    EXPECT_EQ(first.load.max_latency, direct.load.max_latency);
    EXPECT_EQ(first.events_processed, direct.events_processed);
  }
  // The SurgeGuard cell exercises FirstResponder, so `first` carries it.
  EXPECT_GT(grid[0].first.fr_boosts, 0u);
}

TEST(ControllerKindTest, Names) {
  EXPECT_STREQ(to_string(ControllerKind::kParties), "Parties");
  EXPECT_STREQ(to_string(ControllerKind::kCaladan), "CaladanAlgo");
  EXPECT_STREQ(to_string(ControllerKind::kSurgeGuard), "SurgeGuard");
  EXPECT_STREQ(to_string(ControllerKind::kEscalator), "Escalator");
  EXPECT_STREQ(to_string(ControllerKind::kIdealOracle), "IdealOracle");
}

}  // namespace
}  // namespace sg
