// Calibration probe: inspects the operating point of each catalog workload.
//
// Prints, per service: low-load vs base-load execMetric and timeFromStart,
// utilization, queueBuildup, and pool sizes — then runs SurgeGuard on a
// STEADY (no-surge) load to verify the fast path is quiet when nothing is
// wrong (FirstResponder must not fire on base-load jitter).
//
//   ./build/examples/calibration_probe [workload]
#include <cstdio>
#include <string>

#include "common/table.hpp"
#include "core/experiment.hpp"

using namespace sg;

namespace {

// Runs a steady load at `rate_frac` of base with a given controller and
// returns how many frequency boosts FirstResponder applied.
std::uint64_t probe(const WorkloadInfo& w, double rate_frac,
                    ControllerKind kind, const ProfileResult& prof) {
  ExperimentConfig cfg;
  cfg.workload = w;
  cfg.controller = kind;
  cfg.surge_len = Duration::zero();  // steady
  cfg.warmup = 3 * kSecond;
  cfg.duration = 10 * kSecond;
  cfg.seed = 11;
  cfg.pattern_override = SpikePattern::steady(w.base_rate_rps * rate_frac);
  return run_experiment(cfg, prof).fr_boosts;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "chain";
  const auto found = workload_by_name(name);
  if (!found) {
    std::fprintf(stderr, "error: unknown workload '%s'\n", name.c_str());
    return 2;
  }
  const WorkloadInfo& w = *found;

  print_banner("calibration probe: " + w.spec.name);
  const ProfileResult prof_low = profile_workload(w, 1);
  std::printf("low-load mean e2e: %.3f ms\n",
              prof_low.low_load_mean_latency.millis());

  // Profile again at the BASE rate: the ratio base/low per container tells
  // how close to the knee each service runs.
  WorkloadInfo base_w = w;
  ProfileResult prof_base;
  {
    // profile_workload always probes at 10% of base_rate_rps; scale the
    // catalog rate so "10%" is the full base rate.
    base_w.base_rate_rps = w.base_rate_rps * 10.0;
    prof_base = profile_workload(base_w, 1);
  }

  TablePrinter table({"service", "exec low (us)", "exec base (us)", "ratio",
                      "tfs low (us)", "tfs base (us)", "tfs ratio"});
  for (std::size_t i = 0; i < w.spec.services.size(); ++i) {
    const int cid = static_cast<int>(i);
    const auto& lo = prof_low.targets.of(cid);
    const auto& hi = prof_base.targets.of(cid);
    // Targets are 2x the measured values; the ratio cancels the factor.
    table.add_row(
        {w.spec.services[i].name,
         fmt_double(lo.expected_exec_metric_ns / 2e3, 1),
         fmt_double(hi.expected_exec_metric_ns / 2e3, 1),
         fmt_double(hi.expected_exec_metric_ns /
                        std::max(1.0, lo.expected_exec_metric_ns), 2),
         fmt_double(
             static_cast<double>(lo.expected_time_from_start.ns()) / 2e3, 1),
         fmt_double(
             static_cast<double>(hi.expected_time_from_start.ns()) / 2e3, 1),
         fmt_double(
             static_cast<double>(hi.expected_time_from_start.ns()) /
                 std::max<double>(
                     1.0,
                     static_cast<double>(lo.expected_time_from_start.ns())),
             2)});
  }
  table.print();

  std::printf("base e2e mean: %.3f ms (%.2fx low-load)\n",
              prof_base.low_load_mean_latency.millis(),
              prof_base.low_load_mean_latency / prof_low.low_load_mean_latency);

  // Steady-state quietness check: SurgeGuard on a surge-free base load.
  const std::uint64_t boosts =
      probe(w, 1.0, ControllerKind::kSurgeGuard, prof_low);
  std::printf("FirstResponder boosts on steady base load (13s): %llu %s\n",
              static_cast<unsigned long long>(boosts),
              boosts < 100 ? "(quiet - OK)" : "(NOISY - recalibrate)");
  return 0;
}
