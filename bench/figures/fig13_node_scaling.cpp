// Fig. 13: node scaling (1, 2, 4 nodes), 2s surges at 1.75x every 10s,
// normalized to Parties and CaladanAlgo.
//
// Paper shape: SurgeGuard wins everywhere; its core/energy advantage GROWS
// with node count (6.5%->16.4% cores, 14.2%->28.3% energy — more total
// free cores means the baselines over-allocate more), while its VV
// advantage SHRINKS (67.2%->51.4% — spreading containers makes it harder
// for any one container to hog a critical fraction of cores).
#include "figure.hpp"

namespace sg::bench {
namespace {

const int kNodeCounts[3] = {1, 2, 4};
const ControllerKind kKinds[3] = {ControllerKind::kParties,
                                  ControllerKind::kCaladan,
                                  ControllerKind::kSurgeGuard};

std::vector<WorkloadInfo> workloads(const BenchArgs& args) {
  if (args.quick) return {make_chain(), make_hotel_recommend()};
  return workload_catalog();
}

std::vector<GridCell> cells(const BenchArgs& args) {
  std::vector<GridCell> out;
  for (int nodes : kNodeCounts) {
    for (const WorkloadInfo& w : workloads(args)) {
      ExperimentConfig cfg;
      cfg.workload = w;
      cfg.nodes = nodes;
      cfg.surge_mult = 1.75;
      cfg.surge_len = 2 * kSecond;
      args.apply_timing(cfg);
      for (ControllerKind kind : kKinds) {
        cfg.controller = kind;
        out.push_back(args.replicated(cfg));
      }
    }
  }
  return out;
}

void print(const BenchArgs& args, const Results& grid, Tables& out) {
  std::size_t next = 0;
  for (int nodes : kNodeCounts) {
    print_banner("Fig. 13 - " + std::to_string(nodes) +
                 " node(s), 1.75x 2s surges (normalized to Parties)");
    TablePrinter table({"workload", "VV sg/parties", "VV sg/caladan",
                        "cores sg/parties", "energy sg/parties",
                        "energy sg/caladan"});
    std::vector<std::optional<double>> vvp, cp, ep;
    for (const WorkloadInfo& w : workloads(args)) {
      const RepStats& parties = grid[next];
      const RepStats& caladan = grid[next + 1];
      const RepStats& surgeguard = grid[next + 2];
      next += 3;
      vvp.push_back(ratio_to(surgeguard.vv, parties.vv));
      cp.push_back(ratio_to(surgeguard.cores, parties.cores));
      ep.push_back(ratio_to(surgeguard.energy, parties.energy));
      table.add_row(
          {short_name(w), fmt_ratio_or_dash(vvp.back()),
           fmt_ratio_or_dash(ratio_to(surgeguard.vv, caladan.vv)),
           fmt_ratio_or_dash(cp.back()), fmt_ratio_or_dash(ep.back()),
           fmt_ratio_or_dash(ratio_to(surgeguard.energy, caladan.energy))});
    }
    out.print(table);
    std::printf(
        "averages @%d node(s): %s, %s, %s than Parties\n", nodes,
        avg_below_one("VV", "lower", vvp).c_str(),
        avg_below_one("cores", "fewer", cp).c_str(),
        avg_below_one("energy", "less", ep).c_str());
  }
}

}  // namespace

Figure fig13_node_scaling() { return {"fig13_node_scaling", cells, print}; }

}  // namespace sg::bench
