// Fig. 12: effect of surge duration (0.1s - 5s) on SurgeGuard, normalized
// to (a) Parties and (b) CaladanAlgo, for recommendHotel
// (connection-per-request) and readUserTimeline (fixed threadpool) at a
// 1.75x surge rate.
//
// Paper shape: SurgeGuard < 1.0 everywhere, improving as surges lengthen
// (43.4% -> 56.5% over the baselines from 0.1s to 5s); energy stays ~1
// except CaladanAlgo on recommendHotel, where Caladan never upscales at all
// (x-fold lower energy, orders-of-magnitude higher VV).
#include "bench_common.hpp"

using namespace sg;
using namespace sg::bench;

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::parse(argc, argv);
  auto csv = open_csv(args, "fig12_duration_sweep");
  if (csv) {
    csv->cell("workload").cell("surge_len_ms").cell("controller")
        .cell("vv_ms_s").cell("energy_j").cell("avg_cores");
    csv->end_row();
  }

  const std::vector<Duration> durations =
      args.quick ? std::vector<Duration>{100 * kMillisecond, 2 * kSecond}
                 : std::vector<Duration>{100 * kMillisecond, 500 * kMillisecond,
                                        1 * kSecond, 2 * kSecond, 5 * kSecond};

  const WorkloadInfo workloads[2] = {make_hotel_recommend(),
                                     make_social_read_user_timeline()};
  const ControllerKind kinds[3] = {ControllerKind::kParties,
                                   ControllerKind::kCaladan,
                                   ControllerKind::kSurgeGuard};
  const ProfileResult profiles[2] = {profile_workload(workloads[0], 1),
                                     profile_workload(workloads[1], 1)};
  std::vector<GridCell> cells;
  for (std::size_t wi = 0; wi < 2; ++wi) {
    for (Duration len : durations) {
      ExperimentConfig cfg;
      cfg.workload = workloads[wi];
      cfg.surge_mult = 1.75;
      cfg.surge_len = len;
      cfg.surge_period = 10 * kSecond;
      args.apply_timing(cfg);
      // Long surges need a longer window to hold >=1 full surge.
      if (len >= cfg.duration / 2) cfg.duration = len * 4;
      for (ControllerKind kind : kinds) {
        cfg.controller = kind;
        cells.push_back({cfg, &profiles[wi]});
      }
    }
  }
  const std::vector<RepStats> grid = run_grid(cells, args.sweep());

  std::size_t next = 0;
  for (const WorkloadInfo& w : workloads) {
    print_banner("Fig. 12 - surge duration sweep, " + w.spec.name +
                 " @1.75x (normalized to each baseline)");
    TablePrinter table({"surge len", "VV vs Parties", "VV vs Caladan",
                        "energy vs Parties", "energy vs Caladan",
                        "VV SG (ms*s)"});
    for (Duration len : durations) {
      const RepStats* stats = &grid[next];
      next += 3;
      for (int k = 0; k < 3; ++k) {
        if (csv) {
          csv->cell(short_name(w)).cell(len.millis())
              .cell(to_string(kinds[k])).cell(stats[k].vv)
              .cell(stats[k].energy).cell(stats[k].cores);
          csv->end_row();
        }
      }
      auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
      table.add_row({format_time(len),
                     fmt_ratio(ratio(stats[2].vv, stats[0].vv)),
                     fmt_ratio(ratio(stats[2].vv, stats[1].vv)),
                     fmt_ratio(ratio(stats[2].energy, stats[0].energy)),
                     fmt_ratio(ratio(stats[2].energy, stats[1].energy)),
                     fmt_double(stats[2].vv, 2)});
    }
    table.print();
  }
  std::printf(
      "\nPaper shape: values < 1 mean SurgeGuard beats the baseline; the VV\n"
      "advantage widens with surge duration. On recommendHotel, CaladanAlgo\n"
      "is blind (connection-per-request: queueBuildup stays ~1), so its\n"
      "energy is far lower but its VV is orders of magnitude higher.\n");
  return 0;
}
