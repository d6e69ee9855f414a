// Table I: comparison of SurgeGuard with existing controllers —
// dependence-awareness, distribution, and update interval. The paper's
// table is qualitative except for the update intervals; this bench prints
// the table and then MEASURES the effective detection-to-reaction latency
// of each implemented controller on an injected surge.
#include "bench_common.hpp"

using namespace sg;
using namespace sg::bench;

namespace {

// Measures time from surge start until the controller's first resource
// action (core grant or frequency change) on any container.
Duration measure_reaction(ControllerKind kind, const ProfileResult& profile,
                          const BenchArgs& args) {
  ExperimentConfig cfg;
  cfg.workload = make_chain();
  cfg.controller = kind;
  cfg.warmup = 3 * kSecond;
  cfg.duration = 6 * kSecond;
  cfg.surge_mult = 1.75;
  cfg.surge_len = 2 * kSecond;
  cfg.first_surge_offset = 1 * kSecond;
  cfg.record_alloc_timelines = true;
  cfg.trace_sample_interval = 100 * kMicrosecond;
  cfg.seed = args.seed;
  const ExperimentResult r = run_experiment(cfg, profile);

  const TimePoint surge_start =
      TimePoint::at(cfg.warmup + cfg.first_surge_offset);
  Duration first_action = Duration::infinity();
  for (const ContainerTrace& trace : r.alloc_traces) {
    auto scan = [&](const std::vector<StepTimeline::Point>& pts) {
      if (pts.empty()) return;
      const double initial = pts.front().value;
      for (const auto& p : pts) {
        if (p.time > surge_start && p.value != initial) {
          first_action = std::min(first_action, p.time - surge_start);
          return;
        }
      }
    };
    scan(trace.cores);
    scan(trace.frequency);
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
  for (const Row& row :
       {Row{ControllerKind::kParties, "averaged metrics, 500ms FSM"},
        Row{ControllerKind::kCaladan, "queue signal, metric-publication bound"},
        Row{ControllerKind::kEscalator, "averaged metrics, 100ms cycle"},
        Row{ControllerKind::kSurgeGuard,
            "per-packet slack -> same-millisecond frequency boost"}}) {
    const Duration reaction = measure_reaction(row.kind, profile, args);
    measured.add_row({to_string(row.kind),
                      reaction == Duration::infinity() ? "none"
                                                       : format_time(reaction),
                      row.note});
    if (csv) {
      csv->cell(to_string(row.kind))
          .cell(static_cast<long long>(reaction.ns()));
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
