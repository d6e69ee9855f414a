// Chaos recovery: controller comparison under injected faults.
//
// ScalerEval-style disturbance scenarios: the same surge workload is run
// through (a) a clean baseline, (b) a 10% packet-loss window, and (c) a
// deep node-slowdown window, with RPC retransmission enabled everywhere.
// The questions a scaler must answer under chaos are different from the
// steady-state ones: does every request drain (conservation), how much tail
// latency does recovery cost, and does the controller's reaction help or
// thrash. Faults are seed-deterministic (sg::fault), so cells are
// reproducible run to run.
#include "figure.hpp"

namespace sg::bench {
namespace {

struct Scenario {
  const char* name;
  const char* plan;  // FaultPlan spec ("" = clean baseline)
};

// Fault windows sit inside the measurement window (warmup defaults to
// 5 s), overlapping the load surges so recovery and scaling interact.
const Scenario kScenarios[] = {
    {"baseline (no faults)", ""},
    {"10% packet loss, 2s window", "drop:start_ms=8000,len_ms=2000,rate=0.1"},
    {"node slowdown 4x, 500ms window",
     "slow:node=0,start_ms=8000,len_ms=500,factor=0.25"},
};

const ControllerKind kKinds[3] = {ControllerKind::kParties,
                                  ControllerKind::kCaladan,
                                  ControllerKind::kSurgeGuard};

std::vector<GridCell> cells(const BenchArgs& args) {
  std::vector<GridCell> out;
  for (const Scenario& sc : kScenarios) {
    FaultPlan plan;
    if (sc.plan[0] != '\0') {
      std::string error;
      const auto parsed = FaultPlan::parse(sc.plan, &error);
      if (!parsed) {
        std::fprintf(stderr, "bad plan: %s\n", error.c_str());
        std::exit(2);
      }
      plan = *parsed;
    }
    for (ControllerKind kind : kKinds) {
      ExperimentConfig cfg;
      cfg.workload = make_chain();
      cfg.controller = kind;
      // NO load surge: the disruption is the fault.
      cfg.surge_len = Duration::zero();
      args.apply_timing(cfg);
      cfg.rpc_retry.enabled = true;
      cfg.rpc_retry.timeout = 50 * kMillisecond;
      cfg.drain = 5 * kSecond;
      cfg.fault_plan = plan;
      out.push_back(BenchArgs::once(cfg));
    }
  }
  return out;
}

void print(const BenchArgs&, const Results& grid, Tables& out) {
  std::size_t next = 0;
  for (const Scenario& sc : kScenarios) {
    print_banner(std::string("chaos: ") + sc.name);
    TablePrinter table({"controller", "VV (ms*s)", "p99 (ms)", "completed",
                        "retries", "dropped", "stranded"});
    for (ControllerKind kind : kKinds) {
      const ExperimentResult& r = grid[next++].first;
      table.add_row({to_string(kind),
                     fmt_double(r.load.violation_volume_ms_s, 2),
                     fmt_double(r.load.p99.millis(), 2),
                     std::to_string(r.load.completed_total),
                     std::to_string(r.load.retries),
                     std::to_string(r.load.dropped),
                     std::to_string(r.load.outstanding)});
    }
    out.print(table);
  }
  std::printf(
      "\nExpected shape: every baseline cell is clean (retries enabled but\n"
      "never firing). Faults inflate the tail for everyone — retransmission\n"
      "delay is not removable by a CPU controller — but a controller that\n"
      "restores capacity drains the retried backlog and finishes with zero\n"
      "stranded requests (SurgeGuard fastest, Parties behind it). A\n"
      "controller whose upscale signal misses the post-fault backlog\n"
      "(CaladanAlgo on this pooled workload) ends the run with a standing\n"
      "queue: completed < issued and the remainder shows as stranded —\n"
      "the recovery difference chaos runs exist to expose.\n");
}

}  // namespace

Figure chaos_recovery() { return {"chaos_recovery", cells, print}; }

}  // namespace sg::bench
