// Fig. 4: why detection latency matters.
//
// An idealized controller that, `delay` after a surge begins, instantly
// allocates exactly the cores needed (surge + backlog drain) and releases
// them afterwards. The paper's example: a 4s surge; detection delays of
// 0.2ms (SurgeGuard's fast path), 0.5s (Parties), and 1s (ML controllers)
// give violation volumes of roughly 1x : ~4.75x : ~24x, with 40-75% more
// cores needed at the slower delays (the backlog accumulated while
// undetected must be drained on top of the surge itself).
//
// The node is provisioned with a deep free pool so the oracle is never
// pool-limited — the figure isolates detection latency, not scarcity.
#include "figure.hpp"

namespace sg::bench {
namespace {

const Duration kDelays[3] = {200 * kMicrosecond, 500 * kMillisecond,
                             1 * kSecond};

/// Peak simultaneous application cores over the measurement window (the
/// "cores needed to overcome the surge" quantity Fig. 4 plots). A sum of
/// step functions peaks at one of its change points, so the maximum over
/// every change point up to measure_end is exact.
double peak_total_cores(const ExperimentResult& r) {
  double peak = 0.0;
  for (const ServiceTimeline& changed : r.timelines) {
    for (const StepTimeline::Point& p : changed.cores.points()) {
      if (p.time > r.measure_end) break;
      double total = 0.0;
      for (const ServiceTimeline& service : r.timelines) {
        total += service.cores.at(p.time);
      }
      peak = std::max(peak, total);
    }
  }
  return peak;
}

std::vector<GridCell> cells(const BenchArgs& args) {
  ExperimentConfig base;
  base.workload = make_chain();
  base.controller = ControllerKind::kIdealOracle;
  base.surge_mult = 1.75;
  base.surge_len = 4 * kSecond;   // the paper's 4s surge
  base.surge_period = 10 * kSecond;
  base.warmup = args.quick ? 2 * kSecond : 5 * kSecond;
  base.duration = args.quick ? 12 * kSecond : 30 * kSecond;
  base.ideal_drain_window = 150 * kMillisecond;
  base.free_headroom = 3.0;  // deep pool: isolate detection latency

  std::vector<GridCell> out;
  for (Duration delay : kDelays) {
    ExperimentConfig cfg = base;
    cfg.ideal_detection_delay = delay;
    out.push_back(args.replicated(cfg));
  }
  return out;
}

void print(const BenchArgs&, const Results& grid, Tables& out) {
  print_banner("Fig. 4 - detection delay vs violation volume (ideal controller)");
  const double initial = static_cast<double>(make_chain().total_initial_cores());
  TablePrinter table({"detection delay", "VV (ms*s)", "VV vs 0.2ms",
                      "peak cores", "peak extra", "extra vs 0.2ms"});
  // Peak cores come from the seed0 replication's core timelines.
  const double vv0 = grid[0].vv;
  const double extra0 =
      std::max(1e-9, peak_total_cores(grid[0].first) - initial);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const double vv = grid[i].vv;
    const double peak_cores = peak_total_cores(grid[i].first);
    const double extra = peak_cores - initial;
    // A 0.2ms detection can genuinely zero out the violation volume in the
    // simulator (the queue never forms); the ratio column then degenerates.
    const std::string vv_ratio =
        vv0 > 0.01 ? fmt_ratio(vv / vv0, 1)
                   : (vv <= 0.01 ? "1.0x" : ">>1 (0.2ms absorbs all)");
    table.add_row({format_time(kDelays[i]), fmt_double(vv, 2), vv_ratio,
                   fmt_double(peak_cores, 1), fmt_double(extra, 1),
                   fmt_ratio(extra / extra0, 2)});
  }
  out.print(table);
  if (grid[1].vv > 0.01) {
    std::printf("VV(1s) / VV(0.5s) = %.1fx (paper: 24/4.75 ~ 5.1x)\n",
                grid[2].vv / grid[1].vv);
  }
  std::printf(
      "\nPaper shape: VV grows super-linearly with detection delay\n"
      "(1s is ~24x the 0.2ms case, 0.5s is ~4.75x), and slower detection\n"
      "needs 40-75%% more cores to drain the accumulated queue.\n");
}

}  // namespace

Figure fig4_detection_delay() { return {"fig4_detection_delay", cells, print}; }

}  // namespace sg::bench
