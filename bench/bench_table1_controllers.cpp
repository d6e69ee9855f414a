// Table I: comparison of SurgeGuard with existing controllers —
// dependence-awareness, distribution, and update interval. The paper's
// table is qualitative except for the update intervals; this bench prints
// the table and then MEASURES the effective detection-to-reaction latency
// of each implemented controller on an injected surge.
#include "bench_common.hpp"

using namespace sg;
using namespace sg::bench;

namespace {

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

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::parse(argc, argv);
  print_banner("Table I - controller comparison");

  TablePrinter paper({"Controller Type", "Controller", "Dependence Aware?",
                      "Distributed?", "Update Interval (paper)"});
  paper.add_row({"ML", "Sinan/Sage", "Yes", "No", ">1s (not reproduced: no trained model)"});
  paper.add_row({"Heuristic", "PARTIES", "No", "Yes", "500ms"});
  paper.add_row({"", "Caladan*", "No", "Yes", "5-20us (native stack)"});
  paper.add_row({"", "SurgeGuard", "Yes", "Yes", "~0.2ms"});
  paper.print();

  std::printf("\nMeasured reaction latency (surge start -> first resource "
              "action), CHAIN 1.75x surge:\n\n");
  const ProfileResult profile = profile_workload(make_chain(), 1);
  TablePrinter measured({"controller", "reaction latency", "notes"});
  auto csv = open_csv(args, "table1_reaction");
  if (csv) {
    csv->cell("controller").cell("reaction_ns");
    csv->end_row();
  }
  struct Row {
    ControllerKind kind;
    const char* note;
  };
  const Row rows[] = {
      {ControllerKind::kParties, "averaged metrics, 500ms FSM"},
      {ControllerKind::kCaladan, "queue signal, metric-publication bound"},
      {ControllerKind::kEscalator, "averaged metrics, 100ms cycle"},
      {ControllerKind::kSurgeGuard,
       "per-packet slack -> same-millisecond frequency boost"}};
  ExperimentConfig cfg;
  cfg.workload = make_chain();
  cfg.warmup = 3 * kSecond;
  cfg.duration = 6 * kSecond;
  cfg.surge_mult = 1.75;
  cfg.surge_len = 2 * kSecond;
  cfg.first_surge_offset = 1 * kSecond;
  std::vector<GridCell> cells;
  for (const Row& row : rows) {
    cfg.controller = row.kind;
    cells.push_back({cfg, &profile});
  }
  const std::vector<RepStats> grid = run_grid(cells, args.one_run());

  const TimePoint surge_start =
      TimePoint::at(cfg.warmup + cfg.first_surge_offset);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const ControllerKind kind = rows[i].kind;
    const Duration reaction = first_action_after(grid[i].first, surge_start);
    measured.add_row({to_string(kind),
                      reaction == Duration::infinity() ? "none"
                                                       : format_time(reaction),
                      rows[i].note});
    if (csv) {
      csv->cell(to_string(kind)).cell(static_cast<long long>(reaction.ns()));
      csv->end_row();
    }
  }
  measured.print();
  std::printf(
      "\nExpected shape: SurgeGuard reacts orders of magnitude faster than\n"
      "Parties (paper: ~0.2ms vs 500ms); Escalator alone sits at its decision\n"
      "interval; Caladan reacts at the metric-publication granularity.\n");
  return 0;
}
