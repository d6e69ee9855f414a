// Fig. 11: longer surges managed by Escalator.
//
// Protocol (paper §VI-B): inject 2s request-rate surges every 10s; surge
// rate = 1.25x / 1.5x / 1.75x of base. For every workload and controller,
// report violation volume, cores used, and energy — normalized to Parties,
// exactly as the paper plots them.
//
// Expected shape: SurgeGuard's normalized VV < 1 everywhere, improving with
// surge magnitude (paper: -19% avg at 1.25x, -43% at 1.5x, -61% at 1.75x),
// with 2-8% fewer cores and 2-4% less energy than Parties. CaladanAlgo
// collapses on the connection-per-request hotel workloads.
#include "bench_common.hpp"

using namespace sg;
using namespace sg::bench;

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::parse(argc, argv);
  auto csv = open_csv(args, "fig11_long_surges");
  if (csv) {
    csv->cell("surge_mult").cell("workload").cell("controller").cell("vv_ms_s")
        .cell("avg_cores").cell("energy_j").cell("p98_ms");
    csv->end_row();
  }

  const std::vector<ControllerKind> controllers = {
      ControllerKind::kParties, ControllerKind::kCaladan,
      ControllerKind::kSurgeGuard};

  const std::vector<WorkloadInfo> workloads = workload_catalog();
  std::vector<ProfileResult> profiles;
  for (const WorkloadInfo& w : workloads) {
    profiles.push_back(profile_workload(w, 1));
  }
  const double mults[3] = {1.25, 1.5, 1.75};
  std::vector<GridCell> cells;
  for (double mult : mults) {
    for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
      ExperimentConfig cfg;
      cfg.workload = workloads[wi];
      cfg.surge_mult = mult;
      cfg.surge_len = 2 * kSecond;
      args.apply_timing(cfg);
      for (ControllerKind kind : controllers) {
        cfg.controller = kind;
        cells.push_back({cfg, &profiles[wi]});
      }
    }
  }
  const std::vector<RepStats> grid = run_grid(cells, args.sweep());

  std::size_t next = 0;
  for (double mult : mults) {
    print_banner("Fig. 11 - surge " + fmt_double(mult, 2) +
                 "x base rate, 2s every 10s (normalized to Parties)");
    TablePrinter table({"workload", "VV parties", "VV caladan", "VV surgegd",
                        "cores p.", "cores c.", "cores s.", "energy p.",
                        "energy c.", "energy s."});
    std::vector<double> sg_vv_norm, sg_core_norm, sg_energy_norm;

    for (const WorkloadInfo& w : workloads) {
      const RepStats* stats = &grid[next];
      next += controllers.size();
      for (std::size_t k = 0; k < controllers.size(); ++k) {
        if (csv) {
          csv->cell(mult).cell(short_name(w)).cell(to_string(controllers[k]))
              .cell(stats[k].vv).cell(stats[k].cores).cell(stats[k].energy)
              .cell(stats[k].p98);
          csv->end_row();
        }
      }
      const RepStats& parties = stats[0];
      auto norm = [&](double v, double base) {
        return base > 0.0 ? v / base : 0.0;
      };
      table.add_row({short_name(w), fmt_ratio(1.0),
                     fmt_ratio(norm(stats[1].vv, parties.vv)),
                     fmt_ratio(norm(stats[2].vv, parties.vv)),
                     fmt_ratio(1.0),
                     fmt_ratio(norm(stats[1].cores, parties.cores)),
                     fmt_ratio(norm(stats[2].cores, parties.cores)),
                     fmt_ratio(1.0),
                     fmt_ratio(norm(stats[1].energy, parties.energy)),
                     fmt_ratio(norm(stats[2].energy, parties.energy))});
      sg_vv_norm.push_back(norm(stats[2].vv, parties.vv));
      sg_core_norm.push_back(norm(stats[2].cores, parties.cores));
      sg_energy_norm.push_back(norm(stats[2].energy, parties.energy));
    }
    table.print();
    std::printf(
        "SurgeGuard vs Parties @%.2fx: VV %.1f%% lower, cores %.1f%% fewer, "
        "energy %.1f%% less (averages; paper: 19/43/61%% VV at "
        "1.25/1.5/1.75x, 2-8%% cores, 2-4%% energy)\n",
        mult, 100.0 * (1.0 - mean(sg_vv_norm)),
        100.0 * (1.0 - mean(sg_core_norm)),
        100.0 * (1.0 - mean(sg_energy_norm)));
  }
  return 0;
}
