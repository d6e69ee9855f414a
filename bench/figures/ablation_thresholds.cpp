// Ablation: Escalator's detection thresholds.
//
// The paper fixes QUEUE_TH and EXEC_TH without a sensitivity study; this
// figure sweeps both on the hidden-dependency workload (readUserTimeline,
// 1.75x surges) to show the design point is robust: too-tight thresholds
// fire on base-load noise (wasted allocations, extra energy), too-loose
// thresholds delay detection (violation volume grows), and a wide middle
// band behaves like the paper's defaults.
#include "figure.hpp"

namespace sg::bench {
namespace {

// Each sweep varies one threshold; the other keeps its default
// (QUEUE_TH 1.3, EXEC_TH 1.0).
struct Sweep {
  double Escalator::Options::*threshold;
  const char* column;
  const char* banner;
  std::vector<double> values;
};

std::vector<Sweep> sweeps() {
  return {
      {&Escalator::Options::queue_threshold, "QUEUE_TH",
       "QUEUE_TH sweep (EXEC_TH = 1.0), readUserTimeline 1.75x surges",
       {1.05, 1.15, 1.30, 1.60, 2.50, 10.0}},
      {&Escalator::Options::exec_threshold, "EXEC_TH",
       "EXEC_TH sweep (QUEUE_TH = 1.3)", {0.6, 0.8, 1.0, 1.5, 2.5, 5.0}},
  };
}

std::vector<GridCell> cells(const BenchArgs& args) {
  std::vector<GridCell> out;
  for (const Sweep& sweep : sweeps()) {
    for (double th : sweep.values) {
      ExperimentConfig cfg;
      cfg.workload = make_social_read_user_timeline();
      cfg.controller = ControllerKind::kEscalator;  // isolate the slow path
      cfg.surge_mult = 1.75;
      cfg.surge_len = 2 * kSecond;
      args.apply_timing(cfg);
      cfg.escalator.*sweep.threshold = th;
      out.push_back(BenchArgs::once(cfg));
    }
  }
  return out;
}

void print(const BenchArgs&, const Results& grid, Tables& out) {
  std::size_t next = 0;
  for (const Sweep& sweep : sweeps()) {
    print_banner(sweep.banner);
    TablePrinter table({sweep.column, "VV (ms*s)", "avg cores", "energy (J)"});
    for (double th : sweep.values) {
      const ExperimentResult& r = grid[next++].first;
      table.add_row({fmt_double(th, 2),
                     fmt_double(r.load.violation_volume_ms_s, 2),
                     fmt_double(r.avg_cores, 2),
                     fmt_double(r.energy_joules, 1)});
    }
    out.print(table);
  }
  std::printf(
      "\nExpected shape: a wide plateau around the defaults (QUEUE_TH 1.3,\n"
      "EXEC_TH 1.0); very loose thresholds (right end) push VV up as the\n"
      "controller stops seeing violations, very tight ones fire on noise and\n"
      "burn cores/energy without improving VV.\n");
}

}  // namespace

Figure ablation_thresholds() { return {"ablation_thresholds", cells, print}; }

}  // namespace sg::bench
