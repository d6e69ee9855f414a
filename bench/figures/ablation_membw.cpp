// Ablation (§VII "Extending SurgeGuard to Other Resources"): shared
// memory-bandwidth contention.
//
// The paper names memory bandwidth as the natural next resource for
// SurgeGuard to manage. This figure enables the per-node bandwidth
// interference domain at three provisioning levels and shows (a) how
// contention amplifies surge damage for every controller — upscaled cores
// buy less when the node's bandwidth saturates — and (b) that SurgeGuard's
// relative advantage persists under contention (its sensitivity profile
// observes the diminished returns directly). One profile serves every
// level: profile_workload never sees cfg.membw.
#include "figure.hpp"

namespace sg::bench {
namespace {

struct Level {
  const char* label;
  double bw_gbs;  // <= 0: contention model off
};
const Level kLevels[3] = {Level{"no contention model", 0.0},
                          Level{"ample bandwidth (200 GB/s)", 200.0},
                          Level{"constrained bandwidth (48 GB/s)", 48.0}};
const ControllerKind kKinds[2] = {ControllerKind::kParties,
                                  ControllerKind::kSurgeGuard};

std::vector<GridCell> cells(const BenchArgs& args) {
  std::vector<GridCell> out;
  for (const Level& level : kLevels) {
    for (ControllerKind kind : kKinds) {
      ExperimentConfig cfg;
      cfg.workload = make_chain();
      cfg.controller = kind;
      cfg.surge_mult = 1.75;
      cfg.surge_len = 2 * kSecond;
      args.apply_timing(cfg);
      if (level.bw_gbs > 0.0) {
        MemBwDomain::Params bw;
        bw.node_bw_gbs = level.bw_gbs;
        bw.demand_per_busy_core_gbs = 6.0;
        cfg.membw = bw;
      }
      out.push_back(args.replicated(cfg));
    }
  }
  return out;
}

void print(const BenchArgs&, const Results& grid, Tables& out) {
  std::size_t next = 0;
  for (const Level& level : kLevels) {
    print_banner("membw ablation - CHAIN 1.75x surges, " +
                 std::string(level.label));
    TablePrinter table({"controller", "VV (ms*s)", "avg cores",
                        "VV vs Parties"});
    const double parties_vv = grid[next].vv;
    for (ControllerKind kind : kKinds) {
      const RepStats& stats = grid[next++];
      table.add_row({to_string(kind), fmt_double(stats.vv, 2),
                     fmt_double(stats.cores, 2),
                     parties_vv > 0 ? fmt_ratio(stats.vv / parties_vv) : "-"});
    }
    out.print(table);
  }
  std::printf(
      "\nExpected shape: with constrained bandwidth, the same surge produces\n"
      "a larger violation volume for every controller (extra cores return\n"
      "less once the node bandwidth saturates), but the SurgeGuard/Parties\n"
      "ordering is preserved.\n");
}

}  // namespace

Figure ablation_membw() { return {"ablation_membw", cells, print}; }

}  // namespace sg::bench
