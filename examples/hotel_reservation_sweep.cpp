// Domain example: hotelReservation (gRPC, connection-per-request) under a
// surge-magnitude sweep — the workload family where queue-signal
// controllers (CaladanAlgo) go blind because there are no connection pools
// to queue on, and where sensitivity-aware allocation carries SurgeGuard.
//
//   ./build/examples/hotel_reservation_sweep [searchHotel|recommendHotel]
#include <cstdio>
#include <string>

#include "common/csv.hpp"
#include "common/table.hpp"
#include "core/experiment.hpp"
#include "core/sweep.hpp"

using namespace sg;

int main(int argc, char** argv) {
  const std::string action = argc > 1 ? argv[1] : "recommendHotel";
  const WorkloadInfo w = workload_by_name(action);
  std::printf("workload: %s (%s, %s)\n", w.spec.name.c_str(),
              to_string(w.spec.rpc), to_string(w.spec.threading));

  const ProfileResult profile = profile_workload(w, 1);

  print_banner(w.action + ": violation volume across surge magnitudes");
  TablePrinter table({"surge", "Parties VV", "Caladan VV", "SurgeGuard VV",
                      "SG vs Parties", "Caladan energy vs SG"});
  for (double mult : {1.25, 1.5, 1.75, 2.0}) {
    ExperimentConfig cfg;
    cfg.workload = w;
    cfg.surge_mult = mult;
    cfg.surge_len = 2 * kSecond;
    cfg.warmup = 5 * kSecond;
    cfg.duration = 20 * kSecond;

    SweepOptions sweep;
    sweep.replications = 3;
    sweep.trim = 0;
    sweep.threads = 1;

    RepStats stats[3];
    const ControllerKind kinds[3] = {ControllerKind::kParties,
                                     ControllerKind::kCaladan,
                                     ControllerKind::kSurgeGuard};
    for (int k = 0; k < 3; ++k) {
      cfg.controller = kinds[k];
      stats[k] = run_replicated(cfg, profile, sweep);
    }
    table.add_row(
        {fmt_double(mult, 2) + "x", fmt_double(stats[0].vv, 2),
         fmt_double(stats[1].vv, 2), fmt_double(stats[2].vv, 2),
         stats[0].vv > 0 ? fmt_ratio(stats[2].vv / stats[0].vv) : "-",
         stats[2].energy > 0 ? fmt_ratio(stats[1].energy / stats[2].energy)
                             : "-"});
  }
  table.print();
  std::printf(
      "\nWith connection-per-request RPCs there is no implicit queue, so\n"
      "CaladanAlgo's queue signal never fires: it neither upscales (huge VV)\n"
      "nor spends energy. SurgeGuard falls back on its execMetric check and\n"
      "sensitivity-aware placement, which is why it still beats Parties.\n");
  return 0;
}
