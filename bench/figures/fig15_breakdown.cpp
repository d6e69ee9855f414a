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
#include "figure.hpp"

namespace sg::bench {
namespace {

const ControllerKind kVariants[4] = {
    ControllerKind::kParties, ControllerKind::kEscalatorMetricsOnly,
    ControllerKind::kEscalatorSensOnly, ControllerKind::kEscalator};
const char* const kLabels[4] = {"Parties", "+ new metrics", "+ sensitivity",
                                "Escalator (both)"};

std::vector<WorkloadInfo> workloads() {
  return {make_social_read_user_timeline(), make_hotel_recommend()};
}

std::vector<GridCell> cells(const BenchArgs& args) {
  std::vector<GridCell> out;
  for (const WorkloadInfo& w : workloads()) {
    for (ControllerKind variant : kVariants) {
      ExperimentConfig cfg;
      cfg.workload = w;
      cfg.controller = variant;
      cfg.surge_mult = 1.75;
      cfg.surge_len = 2 * kSecond;
      args.apply_timing(cfg);
      out.push_back(args.replicated(cfg));
    }
  }
  return out;
}

void print(const BenchArgs&, const Results& grid, Tables& out) {
  std::size_t next = 0;
  for (const WorkloadInfo& w : workloads()) {
    print_banner("Fig. 15 - Escalator breakdown, " + w.spec.name +
                 " (1.75x 2s surges)");
    TablePrinter table({"variant", "VV (ms*s)", "VV vs Parties", "avg cores",
                        "cores vs Parties"});
    const RepStats& parties = grid[next];
    for (const char* label : kLabels) {
      const RepStats& stats = grid[next++];
      table.add_row({label, fmt_double(stats.vv, 2),
                     parties.vv > 0 ? fmt_ratio(stats.vv / parties.vv) : "-",
                     fmt_double(stats.cores, 2),
                     parties.cores > 0 ? fmt_ratio(stats.cores / parties.cores)
                                       : "-"});
    }
    out.print(table);
  }
  std::printf(
      "\nPaper shape: new metrics only move the threadpool workload\n"
      "(readUserTimeline); with connection-per-request pools there is no\n"
      "conn-wait to subtract, so execMetric == execTime and the metrics\n"
      "variant tracks Parties. Sensitivity helps both; combining compounds.\n");
}

}  // namespace

Figure fig15_breakdown() { return {"fig15_breakdown", cells, print}; }

}  // namespace sg::bench
