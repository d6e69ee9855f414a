// Fig. 13: node scaling (1, 2, 4 nodes), 2s surges at 1.75x every 10s,
// normalized to Parties and CaladanAlgo.
//
// Paper shape: SurgeGuard wins everywhere; its core/energy advantage GROWS
// with node count (6.5%->16.4% cores, 14.2%->28.3% energy — more total
// free cores means the baselines over-allocate more), while its VV
// advantage SHRINKS (67.2%->51.4% — spreading containers makes it harder
// for any one container to hog a critical fraction of cores).
#include "bench_common.hpp"

using namespace sg;
using namespace sg::bench;

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::parse(argc, argv);
  auto csv = open_csv(args, "fig13_node_scaling");
  if (csv) {
    csv->cell("nodes").cell("workload").cell("controller").cell("vv_ms_s")
        .cell("avg_cores").cell("energy_j");
    csv->end_row();
  }

  const std::vector<WorkloadInfo> workloads =
      args.quick ? std::vector<WorkloadInfo>{make_chain(), make_hotel_recommend()}
                 : workload_catalog();

  const int node_counts[3] = {1, 2, 4};
  const ControllerKind kinds[3] = {ControllerKind::kParties,
                                   ControllerKind::kCaladan,
                                   ControllerKind::kSurgeGuard};
  // Profiles depend on the node count: one per (nodes, workload), in
  // cell order.
  std::vector<ProfileResult> profiles;
  for (int nodes : node_counts) {
    for (const WorkloadInfo& w : workloads) {
      profiles.push_back(profile_workload(w, nodes));
    }
  }
  std::vector<GridCell> cells;
  std::size_t p = 0;
  for (int nodes : node_counts) {
    for (const WorkloadInfo& w : workloads) {
      ExperimentConfig cfg;
      cfg.workload = w;
      cfg.nodes = nodes;
      cfg.surge_mult = 1.75;
      cfg.surge_len = 2 * kSecond;
      args.apply_timing(cfg);
      for (ControllerKind kind : kinds) {
        cfg.controller = kind;
        cells.push_back({cfg, &profiles[p]});
      }
      ++p;
    }
  }
  const std::vector<RepStats> grid = run_grid(cells, args.sweep());

  std::size_t next = 0;
  for (int nodes : node_counts) {
    print_banner("Fig. 13 - " + std::to_string(nodes) +
                 " node(s), 1.75x 2s surges (normalized to Parties)");
    TablePrinter table({"workload", "VV sg/parties", "VV sg/caladan",
                        "cores sg/parties", "energy sg/parties",
                        "energy sg/caladan"});
    std::vector<double> vvp, vvc, cp, ep, ec;
    for (const WorkloadInfo& w : workloads) {
      const RepStats* stats = &grid[next];
      next += 3;
      for (int k = 0; k < 3; ++k) {
        if (csv) {
          csv->cell(nodes).cell(short_name(w)).cell(to_string(kinds[k]))
              .cell(stats[k].vv).cell(stats[k].cores).cell(stats[k].energy);
          csv->end_row();
        }
      }
      auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
      const double r_vvp = ratio(stats[2].vv, stats[0].vv);
      const double r_vvc = ratio(stats[2].vv, stats[1].vv);
      const double r_cp = ratio(stats[2].cores, stats[0].cores);
      const double r_ep = ratio(stats[2].energy, stats[0].energy);
      const double r_ec = ratio(stats[2].energy, stats[1].energy);
      vvp.push_back(r_vvp);
      vvc.push_back(r_vvc);
      cp.push_back(r_cp);
      ep.push_back(r_ep);
      ec.push_back(r_ec);
      table.add_row({short_name(w), fmt_ratio(r_vvp), fmt_ratio(r_vvc),
                     fmt_ratio(r_cp), fmt_ratio(r_ep), fmt_ratio(r_ec)});
    }
    table.print();
    std::printf(
        "averages @%d node(s): VV %.1f%% lower, cores %.1f%% fewer, energy "
        "%.1f%% less than Parties\n",
        nodes, 100.0 * (1.0 - mean(vvp)), 100.0 * (1.0 - mean(cp)),
        100.0 * (1.0 - mean(ep)));
  }
  return 0;
}
