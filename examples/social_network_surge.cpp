// Domain example: operating socialNetwork's readUserTimeline through load
// surges — the paper's flagship hidden-dependency workload (Fig. 14).
//
// Walks through: profiling targets at low load, choosing a QoS, running the
// same surge scenario under Parties and SurgeGuard, and reading the
// per-service core-allocation timelines to see WHERE each controller put
// the cores.
//
//   ./build/examples/social_network_surge [surge_mult]
#include <cstdio>
#include <cstdlib>

#include "common/csv.hpp"
#include "common/table.hpp"
#include "core/experiment.hpp"

using namespace sg;

int main(int argc, char** argv) {
  const double surge_mult = argc > 1 ? std::atof(argv[1]) : 1.75;

  const WorkloadInfo w = make_social_read_user_timeline();
  std::printf("workload: %s (depth %d, %s, %s)\n", w.spec.name.c_str(),
              w.spec.depth(), to_string(w.spec.rpc),
              to_string(w.spec.threading));

  // Step 1: profile at low load. Targets = 2x measured (paper §IV).
  const ProfileResult profile = profile_workload(w, /*nodes=*/1);
  std::printf("low-load mean e2e %.2f ms -> QoS %.2f ms\n",
              profile.low_load_mean_latency.millis(),
              profile.low_load_mean_latency.millis() * 2.0);

  // Step 2: the surge scenario — a single 10s surge mid-run, so the
  // allocation timelines are easy to read.
  ExperimentConfig cfg;
  cfg.workload = w;
  cfg.warmup = 5 * kSecond;
  cfg.duration = 30 * kSecond;
  cfg.pattern_override = SpikePattern::surges(
      w.base_rate_rps, surge_mult, 10 * kSecond, 60 * kSecond,
      TimePoint::at(15 * kSecond));
  cfg.seed = 42;

  for (ControllerKind kind :
       {ControllerKind::kParties, ControllerKind::kSurgeGuard}) {
    cfg.controller = kind;
    const ExperimentResult r = run_experiment(cfg, profile);
    print_banner(std::string(to_string(kind)) + " under a " +
                 fmt_double(surge_mult, 2) + "x surge (15s-25s)");
    std::printf("violation volume %.2f ms*s | p98 %.2f ms | avg cores %.1f | "
                "energy %.0f J\n\n",
                r.load.violation_volume_ms_s, r.load.p98.millis(),
                r.avg_cores, r.energy_joules);

    // Step 3: where did the cores go?
    TablePrinter table({"service", "pre-surge", "t=20s (mid)", "t=24s (late)",
                        "t=29s (post)"});
    for (const ServiceTimeline& service : r.timelines) {
      auto at = [&](Duration t) {
        return fmt_double(service.cores.at(TimePoint::at(t)), 0);
      };
      table.add_row({service.name, at(14 * kSecond), at(20 * kSecond),
                     at(24 * kSecond), at(29 * kSecond)});
    }
    table.print();
  }

  std::printf(
      "\nReading the tables: Parties piles cores onto user-timeline-service\n"
      "(it holds the implicit threadpool queue, so its execTime looks worst),\n"
      "while SurgeGuard's queueBuildup metric routes cores to the post-storage\n"
      "tier that actually needs them — and returns cores it cannot use.\n");
  return 0;
}
