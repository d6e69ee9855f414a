// Trace-driven surge latency decomposition (fig10-style micro-surges).
//
// Runs CHAIN under 2ms surges at 20x the base rate with tracing on and
// decomposes where traced requests spend their time, per service: execution
// vs CPU queueing vs connection-pool waiting vs network, plus the fraction
// of visit time the serving container ran above base frequency. Comparing
// Escalator alone against full SurgeGuard shows the paper's FirstResponder
// story at request granularity: the boost-active fraction jumps while queue
// fractions shrink. Also prints the critical paths of the slowest kept
// requests and writes a Chrome trace_event JSON of the SurgeGuard run to
// bench_out/trace_breakdown.json (open in Perfetto / chrome://tracing).
#include "bench_common.hpp"

#include <fstream>

#include "trace/export.hpp"

using namespace sg;
using namespace sg::bench;

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::parse(argc, argv);
  print_banner("Trace-driven latency breakdown: Escalator vs SurgeGuard");

  const WorkloadInfo w = make_chain();
  const ProfileResult profile = profile_workload(w, 1);

  auto csv = open_csv(args, "trace_breakdown");
  if (csv) {
    csv->cell("controller").cell("service").cell("visits")
        .cell("avg_visit_us").cell("exec_frac").cell("cpu_queue_frac")
        .cell("conn_wait_frac").cell("boost_frac");
    csv->end_row();
  }

  const ControllerKind kinds[] = {ControllerKind::kEscalator,
                                  ControllerKind::kSurgeGuard};
  std::vector<GridCell> cells;
  for (ControllerKind kind : kinds) {
    ExperimentConfig cfg;
    cfg.workload = w;
    cfg.controller = kind;
    // 20x instantaneous rate, 2ms surges, one per second (Fig. 10's regime
    // where FirstResponder matters most).
    cfg.pattern_override = SpikePattern::surges(
        w.base_rate_rps, 20.0, 2 * kMillisecond, 1 * kSecond,
        TimePoint::at(3 * kSecond));
    cfg.warmup = 2 * kSecond;
    cfg.duration = args.quick ? 4 * kSecond : 10 * kSecond;
    cfg.vv_window = 1 * kMillisecond;
    cfg.trace_enabled = true;
    cfg.trace_capacity = 1u << 16;
    cells.push_back({cfg, &profile});
  }
  const std::vector<RepStats> grid = run_grid(cells, args.one_run());

  for (std::size_t k = 0; k < grid.size(); ++k) {
    const ControllerKind kind = kinds[k];
    const TraceReport& tr = *grid[k].first.trace;

    std::printf("\n--- %s: %llu traces kept (%llu SLO violators), "
                "%llu controller decisions ---\n",
                to_string(kind),
                static_cast<unsigned long long>(tr.stats.requests_kept),
                static_cast<unsigned long long>(tr.stats.slo_violators_kept),
                static_cast<unsigned long long>(tr.stats.decisions_recorded));
    breakdown_table(tr).print();

    std::printf("\nCritical paths of the slowest requests:\n");
    critical_path_table(tr, 3).print();

    if (csv) {
      for (const BreakdownRow& row : latency_breakdown(tr)) {
        csv->cell(to_string(kind)).cell(row.service)
            .cell(static_cast<long long>(row.visits))
            .cell(row.avg_visit_us).cell(row.exec_frac)
            .cell(row.cpu_queue_frac).cell(row.conn_wait_frac)
            .cell(row.boost_frac);
        csv->end_row();
      }
    }

    if (kind == ControllerKind::kSurgeGuard) {
      ::mkdir("bench_out", 0755);
      std::ofstream out("bench_out/trace_breakdown.json", std::ios::binary);
      if (out) {
        out << chrome_trace_json(tr);
        std::printf("\nwrote bench_out/trace_breakdown.json "
                    "(load in Perfetto to inspect)\n");
      }
    }
  }

  std::printf(
      "\nPaper shape: under micro-surges SurgeGuard's FirstResponder raises\n"
      "the boost-active fraction within microseconds of a slack violation,\n"
      "so traced requests show smaller CPU-queue fractions than Escalator\n"
      "alone, whose averaged metrics react only after the surge has queued.\n");
  return 0;
}
