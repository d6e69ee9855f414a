// Table I: comparison of SurgeGuard with existing controllers —
// dependence-awareness, distribution, and update interval. The paper's
// table is qualitative except for the update intervals; this figure prints
// the table and then MEASURES the effective detection-to-reaction latency
// of each implemented controller on an injected surge.
#include "figure.hpp"

namespace sg::bench {
namespace {

struct Row {
  ControllerKind kind;
  const char* note;
};
const Row kRows[] = {
    {ControllerKind::kParties, "averaged metrics, 500ms FSM"},
    {ControllerKind::kCaladan, "queue signal, metric-publication bound"},
    {ControllerKind::kEscalator, "averaged metrics, 100ms cycle"},
    {ControllerKind::kSurgeGuard,
     "per-packet slack -> same-millisecond frequency boost"}};

ExperimentConfig surge_config() {
  ExperimentConfig cfg;
  cfg.workload = make_chain();
  cfg.warmup = 3 * kSecond;
  cfg.duration = 6 * kSecond;
  cfg.surge_mult = 1.75;
  cfg.surge_len = 2 * kSecond;
  cfg.first_surge_offset = 1 * kSecond;
  return cfg;
}

// Time from surge start until the controller's first resource action (core
// grant or frequency change) on any container: the first change point
// strictly after `surge_start` whose value differs from the value at t=0.
Duration first_action_after(const ExperimentResult& r, TimePoint surge_start) {
  Duration first_action = Duration::infinity();
  auto scan = [&](const StepTimeline& timeline) {
    const double initial = timeline.at(TimePoint::origin());
    for (const StepTimeline::Point& p : timeline.points()) {
      if (p.time > surge_start && p.value != initial) {
        first_action = std::min(first_action, p.time - surge_start);
        return;
      }
    }
  };
  for (const ServiceTimeline& service : r.timelines) {
    scan(service.cores);
    scan(service.mhz);
  }
  return first_action;
}

std::vector<GridCell> cells(const BenchArgs&) {
  ExperimentConfig cfg = surge_config();
  std::vector<GridCell> out;
  for (const Row& row : kRows) {
    cfg.controller = row.kind;
    out.push_back(BenchArgs::once(cfg));
  }
  return out;
}

void print(const BenchArgs&, const Results& grid, Tables& out) {
  print_banner("Table I - controller comparison");

  TablePrinter paper({"Controller Type", "Controller", "Dependence Aware?",
                      "Distributed?", "Update Interval (paper)"});
  paper.add_row({"ML", "Sinan/Sage", "Yes", "No", ">1s (not reproduced: no trained model)"});
  paper.add_row({"Heuristic", "PARTIES", "No", "Yes", "500ms"});
  paper.add_row({"", "Caladan*", "No", "Yes", "5-20us (native stack)"});
  paper.add_row({"", "SurgeGuard", "Yes", "Yes", "~0.2ms"});
  out.print(paper);

  std::printf("\nMeasured reaction latency (surge start -> first resource "
              "action), CHAIN 1.75x surge:\n\n");
  TablePrinter measured({"controller", "reaction latency", "notes"});
  const ExperimentConfig cfg = surge_config();
  const TimePoint surge_start =
      TimePoint::at(cfg.warmup + cfg.first_surge_offset);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const Duration reaction = first_action_after(grid[i].first, surge_start);
    measured.add_row({to_string(kRows[i].kind),
                      reaction == Duration::infinity() ? "none"
                                                       : format_time(reaction),
                      kRows[i].note});
  }
  out.print(measured);
  std::printf(
      "\nExpected shape: SurgeGuard reacts orders of magnitude faster than\n"
      "Parties (paper: ~0.2ms vs 500ms); Escalator alone sits at its decision\n"
      "interval; Caladan reacts at the metric-publication granularity.\n");
}

}  // namespace

Figure table1_controllers() { return {"table1_controllers", cells, print}; }

}  // namespace sg::bench
