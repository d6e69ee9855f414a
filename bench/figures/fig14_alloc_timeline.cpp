// Fig. 14: core allocations over time for readUserTimeline under a 10s
// 1.75x surge starting at t=15s.
//
// Paper shape: Parties and CaladanAlgo keep feeding cores to
// user-timeline-service (the container HOLDING the implicit threadpool
// queue), starving the downstream post-storage tier; SurgeGuard spreads
// cores across the task graph from the moment the surge is detected and
// reverses sensitivity-poor allocations mid-surge.
#include "figure.hpp"

namespace sg::bench {
namespace {

const ControllerKind kKinds[3] = {ControllerKind::kParties,
                                  ControllerKind::kCaladan,
                                  ControllerKind::kSurgeGuard};

std::vector<GridCell> cells(const BenchArgs&) {
  const WorkloadInfo w = make_social_read_user_timeline();
  std::vector<GridCell> out;
  for (ControllerKind kind : kKinds) {
    ExperimentConfig cfg;
    cfg.workload = w;
    cfg.controller = kind;
    cfg.warmup = 5 * kSecond;
    cfg.duration = 30 * kSecond;
    // One 10s surge at 15s (paper's setup: surge over [15s, 25s]).
    cfg.pattern_override = SpikePattern::surges(
        w.base_rate_rps, 1.75, 10 * kSecond, 60 * kSecond,
        TimePoint::at(15 * kSecond));
    out.push_back(BenchArgs::once(cfg));
  }
  return out;
}

void print(const BenchArgs&, const Results& grid, Tables& out) {
  for (std::size_t k = 0; k < grid.size(); ++k) {
    const ExperimentResult& r = grid[k].first;

    print_banner("Fig. 14 - " + std::string(to_string(kKinds[k])) +
                 ": cores per service over time (surge 15s-25s)");
    std::vector<std::string> headers{"service"};
    for (Duration t = 10 * kSecond; t <= 30 * kSecond; t += 2 * kSecond) {
      headers.push_back(std::to_string(t.ns() / kSecond.ns()) + "s");
    }
    TablePrinter table(headers);
    for (const ServiceTimeline& service : r.timelines) {
      std::vector<std::string> row{service.name};
      for (Duration t = 10 * kSecond; t <= 30 * kSecond; t += 2 * kSecond) {
        row.push_back(fmt_double(service.cores.at(TimePoint::at(t)), 0));
      }
      table.add_row(std::move(row));
    }
    out.print(table);

    // The paper's headline number: what share of all application cores does
    // user-timeline-service hold at the height of the surge?
    double ut_cores = 0, total = 0;
    for (const ServiceTimeline& service : r.timelines) {
      const double v = service.cores.at(TimePoint::at(24 * kSecond));
      total += v;
      if (service.name.find("user-timeline-service") != std::string::npos) {
        ut_cores = v;
      }
    }
    std::printf("user-timeline-service holds %.0f%% of application cores at "
                "t=24s\n", 100.0 * ut_cores / std::max(1.0, total));
  }
  std::printf(
      "\nPaper shape: Parties/Caladan let user-timeline-service absorb the\n"
      "free pool (it shows the worst execTime because it holds the implicit\n"
      "queue) while post-storage-* starve; SurgeGuard spreads allocations\n"
      "downstream and revokes insensitive cores mid-surge.\n");
}

}  // namespace

Figure fig14_alloc_timeline() { return {"fig14_alloc_timeline", cells, print}; }

}  // namespace sg::bench
