// Quickstart: run one surge experiment with SurgeGuard vs Parties on the
// CHAIN microbenchmark and print the headline numbers.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "common/table.hpp"
#include "core/experiment.hpp"

int main() {
  using namespace sg;

  // 1. Pick a workload from the Table III catalog.
  const WorkloadInfo workload = make_chain();

  // 2. Profile it at low load once; targets are shared by all controllers
  //    (paper §IV "SurgeGuard Parameters": 2x the low-load values).
  const ProfileResult profile = profile_workload(workload, /*nodes=*/1);
  std::printf("low-load mean e2e latency: %.2f ms (p98 %.2f ms)\n",
              profile.low_load_mean_latency.millis(),
              profile.low_load_p98.millis());

  // 3. Describe the experiment: 2s surges at 1.75x the base rate, every
  //    10s, measured for 30s after a 5s warmup.
  ExperimentConfig cfg;
  cfg.workload = workload;
  cfg.surge_mult = 1.75;
  cfg.surge_len = 2 * kSecond;
  cfg.seed = 7;

  // 4. Run each controller on the identical setup.
  TablePrinter table({"controller", "VV (ms*s)", "p98 (ms)", "avg cores",
                      "energy (J)", "throughput (rps)", "FR boosts"});
  for (ControllerKind kind :
       {ControllerKind::kStatic, ControllerKind::kParties,
        ControllerKind::kCaladan, ControllerKind::kSurgeGuard}) {
    cfg.controller = kind;
    const ExperimentResult r = run_experiment(cfg, profile);
    table.add_row({to_string(kind), fmt_double(r.load.violation_volume_ms_s, 2),
                   fmt_double(r.load.p98.millis(), 2),
                   fmt_double(r.avg_cores, 1), fmt_double(r.energy_joules, 1),
                   fmt_double(r.load.throughput_rps, 0),
                   std::to_string(r.fr_boosts)});
  }
  print_banner("CHAIN, 1.75x surge, 2s every 10s");
  table.print();
  return 0;
}
