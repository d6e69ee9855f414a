// §VII "Interaction with Other Controllers": the paper envisions heavy
// ML/gradient controllers setting steady-state allocations at long
// intervals while SurgeGuard manages transients in between.
//
// This bench realizes that vision with the CentralizedML stand-in:
//   Parties           — heuristic baseline
//   CentralizedML     — near-ideal rightsizing, >1s decisions, centralized
//   SurgeGuard        — the paper's controller
//   ML + SurgeGuard   — §VII's proposed deployment
//
// Expected shape: CentralizedML alone achieves the leanest steady-state
// allocation but the worst surge damage (its decisions land ~1.2s after a
// surge begins); SurgeGuard contains surges; the hybrid keeps both —
// ML-grade rightsizing with SurgeGuard-grade surge response.
#include "bench_common.hpp"

using namespace sg;
using namespace sg::bench;

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::parse(argc, argv);
  auto csv = open_csv(args, "discussion_hybrid");
  if (csv) {
    csv->cell("workload").cell("controller").cell("vv_ms_s").cell("avg_cores")
        .cell("energy_j").cell("steady_cores");
    csv->end_row();
  }

  const WorkloadInfo workloads[2] = {make_chain(),
                                     make_social_read_user_timeline()};
  const ControllerKind kinds[4] = {
      ControllerKind::kParties, ControllerKind::kCentralizedML,
      ControllerKind::kSurgeGuard, ControllerKind::kMLPlusSurgeGuard};
  const ProfileResult profiles[2] = {profile_workload(workloads[0], 1),
                                     profile_workload(workloads[1], 1)};
  std::vector<GridCell> surged_cells, steady_cells;
  for (std::size_t wi = 0; wi < 2; ++wi) {
    for (ControllerKind kind : kinds) {
      ExperimentConfig cfg;
      cfg.workload = workloads[wi];
      cfg.controller = kind;
      cfg.surge_mult = 1.75;
      cfg.surge_len = 2 * kSecond;
      args.apply_timing(cfg);
      surged_cells.push_back({cfg, &profiles[wi]});
      // Steady-state rightsizing: same controller, no surges.
      cfg.surge_len = Duration::zero();
      steady_cells.push_back({cfg, &profiles[wi]});
    }
  }
  const std::vector<RepStats> surged_grid =
      run_grid(surged_cells, args.sweep());
  // The steady state is one run at the base seed.
  const std::vector<RepStats> steady_grid =
      run_grid(steady_cells, args.one_run());

  for (std::size_t wi = 0; wi < 2; ++wi) {
    const WorkloadInfo& w = workloads[wi];
    print_banner("SVII hybrid deployment - " + w.spec.name +
                 " (1.75x 2s surges; steady-state cores from a surge-free run)");
    TablePrinter table({"controller", "VV (ms*s)", "avg cores (surges)",
                        "energy (J)", "steady-state cores"});
    for (std::size_t k = 0; k < 4; ++k) {
      const RepStats& surged = surged_grid[4 * wi + k];
      const double steady_cores = steady_grid[4 * wi + k].first.avg_cores;
      table.add_row({to_string(kinds[k]), fmt_double(surged.vv, 2),
                     fmt_double(surged.cores, 2),
                     fmt_double(surged.energy, 1),
                     fmt_double(steady_cores, 2)});
      if (csv) {
        csv->cell(short_name(w)).cell(to_string(kinds[k])).cell(surged.vv)
            .cell(surged.cores).cell(surged.energy).cell(steady_cores);
        csv->end_row();
      }
    }
    table.print();
  }
  std::printf(
      "\nExpected shape (paper SVII): the ML-class controller rightsizes the\n"
      "steady state best but cannot catch 2s surges (decisions land >1s\n"
      "late); SurgeGuard contains surges; the hybrid combines both, letting\n"
      "the heavy controller run rarely without QoS damage in between.\n");
  return 0;
}
