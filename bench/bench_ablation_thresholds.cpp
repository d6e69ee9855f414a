// Ablation: Escalator's detection thresholds.
//
// The paper fixes QUEUE_TH and EXEC_TH without a sensitivity study; this
// bench sweeps both on the hidden-dependency workload (readUserTimeline,
// 1.75x surges) to show the design point is robust: too-tight thresholds
// fire on base-load noise (wasted allocations, extra energy), too-loose
// thresholds delay detection (violation volume grows), and a wide middle
// band behaves like the paper's defaults.
#include "bench_common.hpp"

#include "controllers/escalator.hpp"

using namespace sg;
using namespace sg::bench;

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::parse(argc, argv);
  auto csv = open_csv(args, "ablation_thresholds");
  if (csv) {
    csv->cell("knob").cell("value").cell("vv_ms_s").cell("avg_cores")
        .cell("energy_j");
    csv->end_row();
  }

  const WorkloadInfo w = make_social_read_user_timeline();
  const ProfileResult profile = profile_workload(w, 1);

  // The harness exposes controller construction only by kind, so this bench
  // reaches one level deeper: it replicates run_experiment's SurgeGuard
  // setup with modified Escalator options via the defaults struct. To keep
  // the public API honest, the sweep varies the thresholds through a local
  // runner.
  auto run_with = [&](double queue_th, double exec_th) {
    ExperimentConfig cfg;
    cfg.workload = w;
    cfg.controller = ControllerKind::kEscalator;  // isolate the slow path
    cfg.surge_mult = 1.75;
    cfg.surge_len = 2 * kSecond;
    args.apply_timing(cfg);
    cfg.seed = args.seed;

    // Build the experiment manually so Escalator options are reachable.
    Simulator sim(cfg.seed);
    Cluster cluster(sim);
    const int init = w.total_initial_cores();
    cluster.add_node(static_cast<int>(std::ceil(init * 1.5)) + 19, 19);
    Network network(sim);
    MetricsPlane metrics(1);
    AppSpec spec = w.spec;
    spec.autosize_pools(w.base_rate_rps, 15'000.0);
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
    Escalator::Options opts;
    opts.queue_threshold = queue_th;
    opts.exec_threshold = exec_th;
    Escalator esc(std::move(env), opts);

    LoadGenOptions gen_opts;
    gen_opts.pattern = cfg.make_pattern();
    gen_opts.qos = cfg.qos_mult * profile.low_load_mean_latency;
    gen_opts.warmup = cfg.warmup;
    gen_opts.duration = cfg.duration;
    LoadGenerator gen(sim, network, app, gen_opts);
    esc.start();
    gen.start();
    sim.run_until(gen.measure_end());
    cluster.sync_all();

    struct Out {
      double vv, cores, energy;
    };
    return Out{gen.results().violation_volume_ms_s,
               cluster.average_allocated_cores(gen.measure_start(),
                                               gen.measure_end()),
               cluster.total_energy_joules()};
  };

  print_banner("QUEUE_TH sweep (EXEC_TH = 1.0), readUserTimeline 1.75x surges");
  TablePrinter qt({"QUEUE_TH", "VV (ms*s)", "avg cores", "energy (J)"});
  for (double th : {1.05, 1.15, 1.30, 1.60, 2.50, 10.0}) {
    const auto out = run_with(th, 1.0);
    qt.add_row({fmt_double(th, 2), fmt_double(out.vv, 2),
                fmt_double(out.cores, 2), fmt_double(out.energy, 1)});
    if (csv) {
      csv->cell("queue_th").cell(th).cell(out.vv).cell(out.cores)
          .cell(out.energy);
      csv->end_row();
    }
  }
  qt.print();

  print_banner("EXEC_TH sweep (QUEUE_TH = 1.3)");
  TablePrinter et({"EXEC_TH", "VV (ms*s)", "avg cores", "energy (J)"});
  for (double th : {0.6, 0.8, 1.0, 1.5, 2.5, 5.0}) {
    const auto out = run_with(1.3, th);
    et.add_row({fmt_double(th, 2), fmt_double(out.vv, 2),
                fmt_double(out.cores, 2), fmt_double(out.energy, 1)});
    if (csv) {
      csv->cell("exec_th").cell(th).cell(out.vv).cell(out.cores)
          .cell(out.energy);
      csv->end_row();
    }
  }
  et.print();
  std::printf(
      "\nExpected shape: a wide plateau around the defaults (QUEUE_TH 1.3,\n"
      "EXEC_TH 1.0); very loose thresholds (right end) push VV up as the\n"
      "controller stops seeing violations, very tight ones fire on noise and\n"
      "burn cores/energy without improving VV.\n");
  return 0;
}
