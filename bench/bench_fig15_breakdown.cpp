// Fig. 15: performance breakdown of Escalator's mechanisms.
//
// Four configurations on the Parties base allocator:
//   1. Parties                      (the baseline itself)
//   2. Parties + new metrics        (execMetric/queueBuildup/hints only)
//   3. Parties + sensitivity        (sensitivity allocation/revocation only)
//   4. Escalator (both)
// on readUserTimeline (fixed threadpool) and recommendHotel
// (connection-per-request).
//
// Paper shape: the new metrics help ONLY the threadpool workload
// (readUserTimeline -23.5% VV; recommendHotel unchanged — with unlimited
// pools execMetric == execTime, so the new metrics are inert); sensitivity
// helps both (-28% / -63% VV, -5% / -8% cores); combining them compounds.
#include "bench_common.hpp"

using namespace sg;
using namespace sg::bench;

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::parse(argc, argv);
  auto csv = open_csv(args, "fig15_breakdown");
  if (csv) {
    csv->cell("workload").cell("variant").cell("vv_ms_s").cell("avg_cores");
    csv->end_row();
  }

  const ControllerKind variants[4] = {
      ControllerKind::kParties, ControllerKind::kEscalatorMetricsOnly,
      ControllerKind::kEscalatorSensOnly, ControllerKind::kEscalator};
  const char* labels[4] = {"Parties", "+ new metrics", "+ sensitivity",
                           "Escalator (both)"};

  const WorkloadInfo workloads[2] = {make_social_read_user_timeline(),
                                     make_hotel_recommend()};
  const ProfileResult profiles[2] = {profile_workload(workloads[0], 1),
                                     profile_workload(workloads[1], 1)};
  std::vector<GridCell> cells;
  for (std::size_t wi = 0; wi < 2; ++wi) {
    for (ControllerKind variant : variants) {
      ExperimentConfig cfg;
      cfg.workload = workloads[wi];
      cfg.controller = variant;
      cfg.surge_mult = 1.75;
      cfg.surge_len = 2 * kSecond;
      args.apply_timing(cfg);
      cells.push_back({cfg, &profiles[wi]});
    }
  }
  const std::vector<RepStats> grid = run_grid(cells, args.sweep());

  for (std::size_t wi = 0; wi < 2; ++wi) {
    const WorkloadInfo& w = workloads[wi];
    print_banner("Fig. 15 - Escalator breakdown, " + w.spec.name +
                 " (1.75x 2s surges)");
    TablePrinter table({"variant", "VV (ms*s)", "VV vs Parties", "avg cores",
                        "cores vs Parties"});
    double base_vv = 0, base_cores = 0;
    for (int v = 0; v < 4; ++v) {
      const RepStats& stats = grid[4 * wi + static_cast<std::size_t>(v)];
      if (v == 0) {
        base_vv = stats.vv;
        base_cores = stats.cores;
      }
      table.add_row({labels[v], fmt_double(stats.vv, 2),
                     base_vv > 0 ? fmt_ratio(stats.vv / base_vv) : "-",
                     fmt_double(stats.cores, 2),
                     base_cores > 0 ? fmt_ratio(stats.cores / base_cores) : "-"});
      if (csv) {
        csv->cell(short_name(w)).cell(labels[v]).cell(stats.vv)
            .cell(stats.cores);
        csv->end_row();
      }
    }
    table.print();
  }
  std::printf(
      "\nPaper shape: new metrics only move the threadpool workload\n"
      "(readUserTimeline); with connection-per-request pools there is no\n"
      "conn-wait to subtract, so execMetric == execTime and the metrics\n"
      "variant tracks Parties. Sensitivity helps both; combining compounds.\n");
  return 0;
}
