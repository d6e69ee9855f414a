// §VII "Interaction with Other Controllers": the paper envisions heavy
// ML/gradient controllers setting steady-state allocations at long
// intervals while SurgeGuard manages transients in between.
//
// This figure realizes that vision with the CentralizedML stand-in:
//   Parties           — heuristic baseline
//   CentralizedML     — near-ideal rightsizing, >1s decisions, centralized
//   SurgeGuard        — the paper's controller
//   ML + SurgeGuard   — §VII's proposed deployment
//
// Expected shape: CentralizedML alone achieves the leanest steady-state
// allocation but the worst surge damage (its decisions land ~1.2s after a
// surge begins); SurgeGuard contains surges; the hybrid keeps both —
// ML-grade rightsizing with SurgeGuard-grade surge response.
#include "figure.hpp"

namespace sg::bench {
namespace {

const ControllerKind kKinds[4] = {
    ControllerKind::kParties, ControllerKind::kCentralizedML,
    ControllerKind::kSurgeGuard, ControllerKind::kMLPlusSurgeGuard};

std::vector<WorkloadInfo> workloads() {
  return {make_chain(), make_social_read_user_timeline()};
}

// Per workload and controller: the surged cell, then its surge-free twin.
std::vector<GridCell> cells(const BenchArgs& args) {
  std::vector<GridCell> out;
  for (const WorkloadInfo& w : workloads()) {
    for (ControllerKind kind : kKinds) {
      ExperimentConfig cfg;
      cfg.workload = w;
      cfg.controller = kind;
      cfg.surge_mult = 1.75;
      cfg.surge_len = 2 * kSecond;
      args.apply_timing(cfg);
      out.push_back(args.replicated(cfg));
      // Steady-state rightsizing: same controller, no surges, one run at
      // the base seed.
      cfg.surge_len = Duration::zero();
      out.push_back(BenchArgs::once(cfg));
    }
  }
  return out;
}

void print(const BenchArgs&, const Results& grid, Tables& out) {
  std::size_t next = 0;
  for (const WorkloadInfo& w : workloads()) {
    print_banner("SVII hybrid deployment - " + w.spec.name +
                 " (1.75x 2s surges; steady-state cores from a surge-free run)");
    TablePrinter table({"controller", "VV (ms*s)", "avg cores (surges)",
                        "energy (J)", "steady-state cores"});
    for (ControllerKind kind : kKinds) {
      const RepStats& surged = grid[next];
      const double steady_cores = grid[next + 1].first.avg_cores;
      next += 2;
      table.add_row({to_string(kind), fmt_double(surged.vv, 2),
                     fmt_double(surged.cores, 2),
                     fmt_double(surged.energy, 1),
                     fmt_double(steady_cores, 2)});
    }
    out.print(table);
  }
  std::printf(
      "\nExpected shape (paper SVII): the ML-class controller rightsizes the\n"
      "steady state best but cannot catch 2s surges (decisions land >1s\n"
      "late); SurgeGuard contains surges; the hybrid combines both, letting\n"
      "the heavy controller run rarely without QoS damage in between.\n");
}

}  // namespace

Figure discussion_hybrid() { return {"discussion_hybrid", cells, print}; }

}  // namespace sg::bench
