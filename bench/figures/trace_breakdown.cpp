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
#include "figure.hpp"

#include <fstream>
#include <sys/stat.h>

#include "trace/export.hpp"

namespace sg::bench {
namespace {

const ControllerKind kKinds[2] = {ControllerKind::kEscalator,
                                  ControllerKind::kSurgeGuard};

std::vector<GridCell> cells(const BenchArgs& args) {
  const WorkloadInfo w = make_chain();
  std::vector<GridCell> out;
  for (ControllerKind kind : kKinds) {
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
    out.push_back(BenchArgs::once(cfg));
  }
  return out;
}

void print(const BenchArgs&, const Results& grid, Tables& out) {
  print_banner("Trace-driven latency breakdown: Escalator vs SurgeGuard");
  for (std::size_t k = 0; k < grid.size(); ++k) {
    const ControllerKind kind = kKinds[k];
    const TraceReport& tr = *grid[k].first.trace;

    std::printf("\n--- %s: %llu traces kept (%llu SLO violators), "
                "%llu controller decisions ---\n",
                to_string(kind),
                static_cast<unsigned long long>(tr.stats.requests_kept),
                static_cast<unsigned long long>(tr.stats.slo_violators_kept),
                static_cast<unsigned long long>(tr.stats.decisions_recorded));
    out.print(breakdown_table(tr));

    std::printf("\nCritical paths of the slowest requests:\n");
    out.print(critical_path_table(tr, 3));

    if (kind == ControllerKind::kSurgeGuard) {
      ::mkdir("bench_out", 0755);
      std::ofstream json("bench_out/trace_breakdown.json", std::ios::binary);
      if (json) {
        json << chrome_trace_json(tr);
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
}

}  // namespace

Figure trace_breakdown() { return {"trace_breakdown", cells, print}; }

}  // namespace sg::bench
