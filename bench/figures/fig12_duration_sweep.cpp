// Fig. 12: effect of surge duration (0.1s - 5s) on SurgeGuard, normalized
// to (a) Parties and (b) CaladanAlgo, for recommendHotel
// (connection-per-request) and readUserTimeline (fixed threadpool) at a
// 1.75x surge rate.
//
// Paper shape: SurgeGuard < 1.0 everywhere, improving as surges lengthen
// (43.4% -> 56.5% over the baselines from 0.1s to 5s); energy stays ~1
// except CaladanAlgo on recommendHotel, where Caladan never upscales at all
// (x-fold lower energy, orders-of-magnitude higher VV).
#include "figure.hpp"

namespace sg::bench {
namespace {

const ControllerKind kKinds[3] = {ControllerKind::kParties,
                                  ControllerKind::kCaladan,
                                  ControllerKind::kSurgeGuard};

std::vector<Duration> durations(const BenchArgs& args) {
  if (args.quick) return {100 * kMillisecond, 2 * kSecond};
  return {100 * kMillisecond, 500 * kMillisecond, 1 * kSecond, 2 * kSecond,
          5 * kSecond};
}

std::vector<WorkloadInfo> workloads() {
  return {make_hotel_recommend(), make_social_read_user_timeline()};
}

std::vector<GridCell> cells(const BenchArgs& args) {
  std::vector<GridCell> out;
  for (const WorkloadInfo& w : workloads()) {
    for (Duration len : durations(args)) {
      ExperimentConfig cfg;
      cfg.workload = w;
      cfg.surge_mult = 1.75;
      cfg.surge_len = len;
      cfg.surge_period = 10 * kSecond;
      args.apply_timing(cfg);
      // Long surges need a longer window to hold >=1 full surge.
      if (len >= cfg.duration / 2) cfg.duration = len * 4;
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
  for (const WorkloadInfo& w : workloads()) {
    print_banner("Fig. 12 - surge duration sweep, " + w.spec.name +
                 " @1.75x (normalized to each baseline)");
    TablePrinter table({"surge len", "VV vs Parties", "VV vs Caladan",
                        "energy vs Parties", "energy vs Caladan",
                        "VV SG (ms*s)"});
    for (Duration len : durations(args)) {
      const RepStats& parties = grid[next];
      const RepStats& caladan = grid[next + 1];
      const RepStats& surgeguard = grid[next + 2];
      next += 3;
      auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
      table.add_row({format_time(len),
                     fmt_ratio(ratio(surgeguard.vv, parties.vv)),
                     fmt_ratio(ratio(surgeguard.vv, caladan.vv)),
                     fmt_ratio(ratio(surgeguard.energy, parties.energy)),
                     fmt_ratio(ratio(surgeguard.energy, caladan.energy)),
                     fmt_double(surgeguard.vv, 2)});
    }
    out.print(table);
  }
  std::printf(
      "\nPaper shape: values < 1 mean SurgeGuard beats the baseline; the VV\n"
      "advantage widens with surge duration. On recommendHotel, CaladanAlgo\n"
      "is blind (connection-per-request: queueBuildup stays ~1), so its\n"
      "energy is far lower but its VV is orders of magnitude higher.\n");
}

}  // namespace

Figure fig12_duration_sweep() { return {"fig12_duration_sweep", cells, print}; }

}  // namespace sg::bench
