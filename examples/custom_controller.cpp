// Extension example: writing YOUR OWN controller against the public API.
//
// The paper positions Escalator's candidate-selection as composable with
// any allocation algorithm (§VII). This example builds a deliberately
// simple "GreedyLatency" controller — upscale whatever container currently
// has the largest execTime overshoot, using queueBuildup only as a
// tiebreak — and races it against the built-ins on CHAIN.
//
// It demonstrates every integration point a controller implementor needs:
//   * ControllerEnv: the per-node view (node, metrics bus, topology, targets)
//   * MetricsSnapshot: the published runtime metrics
//   * start_decision_loop: the periodic decision tick (a `stall` fault
//     window skips it, as it skips the built-ins')
//   * Actuator: grant/revoke on the core ledger and set_frequency on the
//     DVFS knob, each action recorded in the decision audit under the
//     controller's source name, like the built-ins' actions
//   * the experiment harness run directly against a custom controller
#include <cstdio>
#include <memory>

#include "common/table.hpp"
#include "controllers/controller.hpp"
#include "core/experiment.hpp"
#include "workload/load_generator.hpp"

using namespace sg;

namespace {

class GreedyLatencyController final : public Controller {
 public:
  explicit GreedyLatencyController(ControllerEnv env) : env_(std::move(env)) {}

  void start() override {
    start_decision_loop(*env_.sim, kInterval, [this] { tick(); });
  }

  void tick() {
    Container* worst = nullptr;
    double worst_overshoot = 0.0;
    for (Container* c : env_.node->containers()) {
      const auto snap = env_.bus->latest(c->id());
      if (!snap || !snap->valid()) continue;
      const double limit = env_.targets.of(c->id()).expected_exec_metric_ns;
      if (limit <= 0) continue;
      const double overshoot =
          (snap->avg_exec_time_ns - limit) * snap->queue_buildup;
      if (overshoot > worst_overshoot) {
        worst_overshoot = overshoot;
        worst = c;
      }
    }
    if (worst != nullptr && act_.grant(*worst, 2) == 0) {
      act_.set_frequency(*worst, worst->frequency() + 300);
    }
  }

 private:
  static constexpr Duration kInterval = 200 * kMillisecond;
  ControllerEnv env_;
  Actuator act_{env_, "greedy-latency"};
};

/// Runs one experiment with a caller-constructed controller. This is the
/// "bring your own controller" path: build the testbed pieces directly
/// instead of going through ControllerKind.
LoadGenResults run_with_custom_controller(const WorkloadInfo& w,
                                          const ProfileResult& profile) {
  Simulator sim(99);
  Cluster cluster(sim);
  // Single node sized like the harness would (init cores * 1.5 + reserved).
  const int init = w.total_initial_cores();
  cluster.add_node(init * 3 / 2 + 19, 19);
  Network network(sim);
  MetricsPlane metrics(1);

  AppSpec spec = w.spec;
  spec.autosize_pools(w.base_rate_rps,
                      static_cast<double>(network.model().same_node.ns()));
  Deployment dep;
  dep.initial_cores = w.initial_cores;
  dep.node_of_service.assign(w.spec.services.size(), 0);
  Application app(cluster, network, metrics, std::move(spec), dep);
  app.start_metric_publication();

  ControllerEnv env;
  env.sim = &sim;
  env.cluster = &cluster;
  env.node = &cluster.node(0);
  env.bus = &metrics.node_bus(0);
  env.app = &app;
  env.topology = app.topology();
  env.targets = profile.targets;
  GreedyLatencyController controller(std::move(env));

  LoadGenOptions gen_opts;
  gen_opts.pattern =
      SpikePattern::surges(w.base_rate_rps, 1.75, 2 * kSecond, 10 * kSecond,
                           TimePoint::at(6 * kSecond));
  gen_opts.qos = 2 * profile.low_load_mean_latency;
  gen_opts.warmup = 5 * kSecond;
  gen_opts.duration = 20 * kSecond;
  LoadGenerator gen(sim, network, app, gen_opts);

  controller.start();
  gen.start();
  sim.run_until(gen.measure_end());
  return gen.results();
}

}  // namespace

int main() {
  const WorkloadInfo w = make_chain();
  const ProfileResult profile = profile_workload(w, 1);

  print_banner("custom controller vs built-ins (CHAIN, 1.75x surges)");
  TablePrinter table({"controller", "VV (ms*s)", "p98 (ms)"});

  // Built-ins through the harness...
  for (ControllerKind kind : {ControllerKind::kParties,
                              ControllerKind::kSurgeGuard}) {
    ExperimentConfig cfg;
    cfg.workload = w;
    cfg.controller = kind;
    cfg.warmup = 5 * kSecond;
    cfg.duration = 20 * kSecond;
    cfg.seed = 99;
    const ExperimentResult r = run_experiment(cfg, profile);
    table.add_row({to_string(kind), fmt_double(r.load.violation_volume_ms_s, 2),
                   fmt_double(r.load.p98.millis(), 2)});
  }
  // ...and the hand-rolled one through the raw API.
  const LoadGenResults custom = run_with_custom_controller(w, profile);
  table.add_row({"GreedyLatency (custom)",
                 fmt_double(custom.violation_volume_ms_s, 2),
                 fmt_double(custom.p98.millis(), 2)});
  table.print();
  std::printf(
      "\nThe custom controller plugs into the same ControllerEnv surface the\n"
      "built-ins use; see src/controllers/*.hpp for richer policies.\n");
  return 0;
}
