// Ablation: Escalator's detection thresholds.
//
// The paper fixes QUEUE_TH and EXEC_TH without a sensitivity study; this
// bench sweeps both on the hidden-dependency workload (readUserTimeline,
// 1.75x surges) to show the design point is robust: too-tight thresholds
// fire on base-load noise (wasted allocations, extra energy), too-loose
// thresholds delay detection (violation volume grows), and a wide middle
// band behaves like the paper's defaults.
#include "bench_common.hpp"

using namespace sg;
using namespace sg::bench;

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::parse(argc, argv);
  auto csv = open_csv(args, "ablation_thresholds");
  if (csv) {
    csv->cell("knob").cell("value").cell("vv_ms_s").cell("avg_cores")
        .cell("energy_j");
    csv->end_row();
  }

  const WorkloadInfo w = make_social_read_user_timeline();
  const ProfileResult profile = profile_workload(w, 1);

  // Each sweep varies one threshold; the other keeps its default
  // (QUEUE_TH 1.3, EXEC_TH 1.0).
  struct Sweep {
    double Escalator::Options::*threshold;
    const char* knob;  // CSV name
    const char* column;
    const char* banner;
    std::vector<double> values;
  };
  const Sweep sweeps[] = {
      {&Escalator::Options::queue_threshold, "queue_th", "QUEUE_TH",
       "QUEUE_TH sweep (EXEC_TH = 1.0), readUserTimeline 1.75x surges",
       {1.05, 1.15, 1.30, 1.60, 2.50, 10.0}},
      {&Escalator::Options::exec_threshold, "exec_th", "EXEC_TH",
       "EXEC_TH sweep (QUEUE_TH = 1.3)", {0.6, 0.8, 1.0, 1.5, 2.5, 5.0}},
  };

  std::vector<GridCell> cells;
  for (const Sweep& sweep : sweeps) {
    for (double th : sweep.values) {
      ExperimentConfig cfg;
      cfg.workload = w;
      cfg.controller = ControllerKind::kEscalator;  // isolate the slow path
      cfg.surge_mult = 1.75;
      cfg.surge_len = 2 * kSecond;
      args.apply_timing(cfg);
      cfg.escalator.*sweep.threshold = th;
      cells.push_back({cfg, &profile});
    }
  }
  const std::vector<RepStats> grid = run_grid(cells, args.one_run());

  std::size_t cell = 0;
  for (const Sweep& sweep : sweeps) {
    print_banner(sweep.banner);
    TablePrinter table({sweep.column, "VV (ms*s)", "avg cores", "energy (J)"});
    for (double th : sweep.values) {
      const ExperimentResult& r = grid[cell++].first;
      table.add_row({fmt_double(th, 2),
                     fmt_double(r.load.violation_volume_ms_s, 2),
                     fmt_double(r.avg_cores, 2),
                     fmt_double(r.energy_joules, 1)});
      if (csv) {
        csv->cell(sweep.knob).cell(th).cell(r.load.violation_volume_ms_s)
            .cell(r.avg_cores).cell(r.energy_joules);
        csv->end_row();
      }
    }
    table.print();
  }
  std::printf(
      "\nExpected shape: a wide plateau around the defaults (QUEUE_TH 1.3,\n"
      "EXEC_TH 1.0); very loose thresholds (right end) push VV up as the\n"
      "controller stops seeing violations, very tight ones fire on noise and\n"
      "burn cores/energy without improving VV.\n");
  return 0;
}
