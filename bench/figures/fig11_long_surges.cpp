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
#include "figure.hpp"

namespace sg::bench {
namespace {

const ControllerKind kKinds[3] = {ControllerKind::kParties,
                                  ControllerKind::kCaladan,
                                  ControllerKind::kSurgeGuard};
const double kMults[3] = {1.25, 1.5, 1.75};

std::vector<GridCell> cells(const BenchArgs& args) {
  std::vector<GridCell> out;
  for (double mult : kMults) {
    for (const WorkloadInfo& w : workload_catalog()) {
      ExperimentConfig cfg;
      cfg.workload = w;
      cfg.surge_mult = mult;
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

void print(const BenchArgs&, const Results& grid, Tables& out) {
  const std::vector<WorkloadInfo> workloads = workload_catalog();
  std::size_t next = 0;
  for (double mult : kMults) {
    print_banner("Fig. 11 - surge " + fmt_double(mult, 2) +
                 "x base rate, 2s every 10s (normalized to Parties)");
    TablePrinter table({"workload", "VV parties", "VV caladan", "VV surgegd",
                        "cores p.", "cores c.", "cores s.", "energy p.",
                        "energy c.", "energy s."});
    std::vector<std::optional<double>> sg_vv_norm, sg_core_norm,
        sg_energy_norm;

    for (const WorkloadInfo& w : workloads) {
      const RepStats& parties = grid[next];
      const RepStats& caladan = grid[next + 1];
      const RepStats& surgeguard = grid[next + 2];
      next += 3;
      auto norm = [](double v, double base) {
        return fmt_ratio_or_dash(ratio_to(v, base));
      };
      table.add_row({short_name(w), fmt_ratio(1.0),
                     norm(caladan.vv, parties.vv),
                     norm(surgeguard.vv, parties.vv), fmt_ratio(1.0),
                     norm(caladan.cores, parties.cores),
                     norm(surgeguard.cores, parties.cores), fmt_ratio(1.0),
                     norm(caladan.energy, parties.energy),
                     norm(surgeguard.energy, parties.energy)});
      sg_vv_norm.push_back(ratio_to(surgeguard.vv, parties.vv));
      sg_core_norm.push_back(ratio_to(surgeguard.cores, parties.cores));
      sg_energy_norm.push_back(ratio_to(surgeguard.energy, parties.energy));
    }
    out.print(table);
    std::printf(
        "SurgeGuard vs Parties @%.2fx: %s, %s, %s (averages; paper: "
        "19/43/61%% VV at 1.25/1.5/1.75x, 2-8%% cores, 2-4%% energy)\n",
        mult, avg_below_one("VV", "lower", sg_vv_norm).c_str(),
        avg_below_one("cores", "fewer", sg_core_norm).c_str(),
        avg_below_one("energy", "less", sg_energy_norm).c_str());
  }
}

}  // namespace

Figure fig11_long_surges() { return {"fig11_long_surges", cells, print}; }

}  // namespace sg::bench
