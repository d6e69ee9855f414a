#include "core/experiment.hpp"

#include <cmath>

#include "common/assert.hpp"
#include "controllers/caladan.hpp"
#include "controllers/centralized.hpp"
#include "controllers/controller.hpp"
#include "controllers/escalator.hpp"
#include "controllers/first_responder.hpp"
#include "controllers/ideal.hpp"
#include "controllers/parties.hpp"

namespace sg {

const char* to_string(ControllerKind k) {
  switch (k) {
    case ControllerKind::kStatic: return "Static";
    case ControllerKind::kParties: return "Parties";
    case ControllerKind::kCaladan: return "CaladanAlgo";
    case ControllerKind::kEscalator: return "Escalator";
    case ControllerKind::kSurgeGuard: return "SurgeGuard";
    case ControllerKind::kEscalatorMetricsOnly: return "Parties+Metrics";
    case ControllerKind::kEscalatorSensOnly: return "Parties+Sensitivity";
    case ControllerKind::kIdealOracle: return "IdealOracle";
    case ControllerKind::kCentralizedML: return "CentralizedML";
    case ControllerKind::kMLPlusSurgeGuard: return "ML+SurgeGuard";
  }
  return "?";
}

SpikePattern ExperimentConfig::make_pattern() const {
  if (pattern_override) return *pattern_override;
  if (surge_len <= Duration::zero() || surge_mult == 1.0) {
    return SpikePattern::steady(workload.base_rate_rps);
  }
  return SpikePattern::surges(workload.base_rate_rps, surge_mult, surge_len,
                              surge_period,
                              TimePoint::at(warmup + first_surge_offset));
}

namespace {

/// Logical cores per node outside the application's pool: 3 for SurgeGuard
/// and 16 for network processing and the OS (paper §V).
constexpr int kReservedCoresPerNode = 19;

/// Everything one simulated run needs, with construction order = teardown
/// safety (sim outlives all users).
struct Testbed {
  Simulator sim;
  Cluster cluster;
  Network network;
  MetricsPlane metrics;
  std::unique_ptr<Application> app;
  std::vector<std::unique_ptr<Controller>> controllers;
  std::vector<FirstResponder*> first_responders;
  std::unique_ptr<FaultInjector> faults;

  void start_controllers() {
    for (auto& c : controllers) c->start();
  }

  Testbed(std::uint64_t seed, int nodes)
      : sim(seed),
        cluster(sim),
        network(sim, NetworkLatencyModel{}, nodes),
        metrics(static_cast<std::size_t>(nodes)) {}
};

std::unique_ptr<Testbed> build_testbed(const ExperimentConfig& config,
                                       const TargetMap& targets,
                                       const SpikePattern& pattern) {
  auto tb = std::make_unique<Testbed>(config.seed, config.nodes);
  const WorkloadInfo& w = config.workload;

  if (config.trace_enabled) {
    TraceOptions topts;
    topts.head_sample_rate = config.trace_sample;
    topts.capacity = config.trace_capacity;
    topts.keep_slo_violators = config.trace_keep_violators;
    tb->sim.enable_tracing(topts);
  }

  // Placement: round-robin services over nodes, calibrated initial cores.
  Deployment deployment;
  deployment.initial_cores = w.initial_cores;
  deployment.node_of_service.resize(w.spec.services.size());
  std::vector<int> init_on_node(static_cast<std::size_t>(config.nodes), 0);
  for (std::size_t i = 0; i < w.spec.services.size(); ++i) {
    const NodeId n = static_cast<NodeId>(i % static_cast<std::size_t>(config.nodes));
    deployment.node_of_service[i] = n;
    init_on_node[static_cast<std::size_t>(n)] += w.initial_cores[i];
  }

  // Node sizing (artifact: workload starts at ~2/3 of allocatable cores).
  for (int n = 0; n < config.nodes; ++n) {
    const int app_cores = std::max(
        init_on_node[static_cast<std::size_t>(n)] + 2,
        static_cast<int>(std::ceil(
            static_cast<double>(init_on_node[static_cast<std::size_t>(n)]) *
            config.free_headroom)));
    const NodeId id =
        tb->cluster.add_node(app_cores + kReservedCoresPerNode,
                             kReservedCoresPerNode);
    // Optional shared-resource interference (paper §VII extension).
    if (config.membw) tb->cluster.node(id).enable_membw(*config.membw);
  }

  // Application with Little's-law-provisioned connection pools (eq. 1).
  AppSpec spec = w.spec;
  const Duration hop = config.nodes > 1 ? tb->network.model().cross_node
                                        : tb->network.model().same_node;
  const double hop_ns = static_cast<double>(hop.ns());
  spec.autosize_pools(w.base_rate_rps, hop_ns);
  tb->app = std::make_unique<Application>(tb->cluster, tb->network, tb->metrics,
                                          std::move(spec), deployment,
                                          config.rpc_retry);
  tb->app->start_metric_publication();

  // Chaos: arm the fault schedule. Created AFTER the stack above so that a
  // fault-free plan leaves every RNG fork stream — and therefore the whole
  // event sequence — bit-identical to the pre-fault code path.
  if (!config.fault_plan.empty()) {
    tb->faults = std::make_unique<FaultInjector>(tb->sim, config.fault_plan);
    tb->faults->arm(&tb->network, &tb->cluster);
  }

  // One controller instance per node (decentralized, Fig. 1).
  const AppTopology topology = tb->app->topology();
  for (int n = 0; n < config.nodes; ++n) {
    ControllerEnv env;
    env.sim = &tb->sim;
    env.cluster = &tb->cluster;
    env.node = &tb->cluster.node(n);
    env.bus = &tb->metrics.node_bus(n);
    env.app = tb->app.get();
    env.topology = topology;
    env.targets = targets;

    switch (config.controller) {
      case ControllerKind::kStatic:
        tb->controllers.push_back(std::make_unique<StaticController>());
        break;
      case ControllerKind::kParties:
        tb->controllers.push_back(std::make_unique<PartiesController>(std::move(env)));
        break;
      case ControllerKind::kCaladan:
        tb->controllers.push_back(std::make_unique<CaladanAlgo>(std::move(env)));
        break;
      case ControllerKind::kCentralizedML:
        // Centralized by definition: ONE instance sees every node. Created
        // while handling node 0; other nodes add nothing.
        if (n == 0) {
          tb->controllers.push_back(std::make_unique<CentralizedMLController>(
              tb->sim, tb->cluster, tb->metrics, targets));
        }
        break;
      case ControllerKind::kMLPlusSurgeGuard:
        // Paper SVII: the ML controller periodically sets steady-state
        // allocations; SurgeGuard handles the transients in between.
        if (n == 0) {
          tb->controllers.push_back(std::make_unique<CentralizedMLController>(
              tb->sim, tb->cluster, tb->metrics, targets));
        }
        [[fallthrough]];
      case ControllerKind::kEscalator:
      case ControllerKind::kSurgeGuard:
      case ControllerKind::kEscalatorMetricsOnly:
      case ControllerKind::kEscalatorSensOnly: {
        // SurgeGuard (paper Fig. 7) is an Escalator plus a FirstResponder on
        // each node; the containers' allocation state is what the two share.
        Escalator::Options opts = config.escalator;
        // Fig. 15's middle bars are "Parties + one mechanism": one Escalator
        // feature on top of the Parties base allocator at Parties' own
        // 500 ms cadence — NOT the faster full Escalator.
        if (config.controller == ControllerKind::kEscalatorMetricsOnly) {
          opts.use_sensitivity = false;
          opts.interval = 500 * kMillisecond;
        }
        if (config.controller == ControllerKind::kEscalatorSensOnly) {
          opts.use_new_metrics = false;
          opts.interval = 500 * kMillisecond;
        }
        tb->controllers.push_back(std::make_unique<Escalator>(env, opts));
        if (config.controller == ControllerKind::kSurgeGuard ||
            config.controller == ControllerKind::kMLPlusSurgeGuard) {
          auto fr =
              std::make_unique<FirstResponder>(std::move(env), tb->network);
          tb->first_responders.push_back(fr.get());
          tb->controllers.push_back(std::move(fr));
        }
        break;
      }
      case ControllerKind::kIdealOracle: {
        IdealOracleController::Options opts;
        opts.pattern = pattern;
        opts.detection_delay = config.ideal_detection_delay;
        opts.drain_window = config.ideal_drain_window;
        opts.horizon = config.warmup + config.duration + 10 * kSecond;
        tb->controllers.push_back(
            std::make_unique<IdealOracleController>(std::move(env), opts));
        break;
      }
    }
  }
  return tb;
}

}  // namespace

ProfileResult profile_workload(const WorkloadInfo& workload, int nodes,
                               double target_mult, std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.workload = workload;
  cfg.controller = ControllerKind::kStatic;
  cfg.nodes = nodes;
  cfg.seed = seed;

  const SpikePattern low_load =
      SpikePattern::steady(workload.base_rate_rps * 0.1);
  auto tb = build_testbed(cfg, TargetMap{}, low_load);

  LoadGenOptions gen_opts;
  gen_opts.pattern = low_load;
  gen_opts.qos = kSecond;  // irrelevant at low load
  gen_opts.warmup = 2 * kSecond;
  gen_opts.duration = 4 * kSecond;
  LoadGenerator gen(tb->sim, tb->network, *tb->app, gen_opts);
  tb->start_controllers();
  gen.start();
  tb->sim.run_until(gen.measure_end());

  ProfileResult prof;
  for (int i = 0; i < tb->app->service_count(); ++i) {
    const Container& c = tb->app->service_container(i);
    const ContainerRuntimeMetrics& m = tb->app->runtime_metrics(c.id());
    ContainerTargets t;
    t.expected_exec_metric_ns =
        target_mult * m.lifetime_avg_exec_metric_ns();
    t.expected_time_from_start = Duration{static_cast<std::int64_t>(
        target_mult * m.lifetime_avg_time_from_start_ns())};
    prof.targets.per_container.emplace(c.id(), t);
  }
  const LoadGenResults res = gen.results();
  prof.low_load_mean_latency =
      Duration{static_cast<std::int64_t>(res.mean_latency_ns)};
  prof.low_load_p98 = res.p98;
  prof.targets.expected_e2e_latency = prof.low_load_mean_latency;
  SG_ASSERT_MSG(res.completed > 0, "profiling run completed no requests");
  return prof;
}

ExperimentResult run_experiment(const ExperimentConfig& config,
                                const ProfileResult& profile) {
  const SpikePattern pattern = config.make_pattern();
  auto tb = build_testbed(config, profile.targets, pattern);

  LoadGenOptions gen_opts;
  gen_opts.pattern = pattern;
  gen_opts.qos = config.qos_mult * profile.low_load_mean_latency;
  gen_opts.warmup = config.warmup;
  gen_opts.duration = config.duration;
  gen_opts.vv_window = config.vv_window;
  // The client's retransmission timeout sits well above the app's internal
  // RPC timeout: internal retries must get a chance to recover a lost
  // packet before the client re-issues the whole request, or a short loss
  // window amplifies into a metastable retry storm.
  gen_opts.retry = config.rpc_retry;
  gen_opts.retry.timeout = 4 * config.rpc_retry.timeout;
  LoadGenerator gen(tb->sim, tb->network, *tb->app, gen_opts);

  if (TraceSink* trace = tb->sim.trace_sink()) {
    // Tail sampling keys off the run's QoS (known only now).
    trace->set_slo_threshold(config.trace_keep_violators ? gen_opts.qos
                                                         : Duration::zero());
  }

  tb->start_controllers();
  gen.start();

  // Energy over the measurement window only (paper subtracts idle and
  // reports application energy during the run). One capture event per node,
  // each syncing only its own containers (the per-node events count towards
  // the pinned event total); summing the snapshot in container order
  // reproduces total_energy_joules()'s exact FP arithmetic.
  auto energy_snapshot = std::make_shared<std::vector<double>>(
      tb->cluster.container_count(), 0.0);
  for (int n = 0; n < config.nodes; ++n) {
    tb->sim.schedule_at(gen.measure_start(), [&tb, n, energy_snapshot]() {
      for (std::size_t i = 0; i < tb->cluster.container_count(); ++i) {
        Container& c = tb->cluster.container(static_cast<ContainerId>(i));
        if (c.node() != n) continue;
        c.sync();
        (*energy_snapshot)[i] = c.energy_joules();
      }
    });
  }

  tb->sim.run_until(gen.measure_end());
  if (config.drain > Duration::zero()) {
    // Drain phase: no new arrivals; in-flight and retried requests finish
    // (or exhaust their retries) before results are read.
    gen.stop();
    tb->sim.run_until(gen.measure_end() + config.drain);
  }
  tb->cluster.sync_all();

  ExperimentResult out;
  out.load = gen.results();
  out.measure_start = gen.measure_start();
  out.measure_end = gen.measure_end();
  out.avg_cores = tb->cluster.average_allocated_cores(gen.measure_start(),
                                                      gen.measure_end());
  double energy_at_start = 0.0;
  for (const double e : *energy_snapshot) energy_at_start += e;
  out.energy_joules = tb->cluster.total_energy_joules() - energy_at_start;

  for (const FirstResponder* fr : tb->first_responders) {
    out.fr_packets += fr->packets_inspected();
    out.fr_violations += fr->violations_detected();
    out.fr_boosts += fr->boosts_applied();
  }

  if (tb->faults) out.faults = tb->faults->stats();
  out.app_rpc_retries = tb->app->rpc_retries();
  out.app_rpc_failures = tb->app->rpc_failures();
  out.app_stray_responses = tb->app->stray_responses();
  out.controller_ticks_stalled = tb->sim.ticks_stalled();
  out.events_processed = tb->sim.events_processed();

  for (int i = 0; i < tb->app->service_count(); ++i) {
    const Container& c = tb->app->service_container(i);
    out.timelines.push_back({c.name(), c.core_timeline(), c.freq_timeline()});
  }
  if (TraceSink* trace = tb->sim.trace_sink()) {
    std::vector<TraceContainerInfo> info;
    for (int i = 0; i < tb->app->service_count(); ++i) {
      const Container& c = tb->app->service_container(i);
      info.push_back({c.id(), c.node(), c.name()});
    }
    trace->set_container_info(std::move(info));
    out.trace = trace->report();
  }
  return out;
}

ExperimentResult run_experiment(const ExperimentConfig& config) {
  const ProfileResult profile =
      profile_workload(config.workload, config.nodes, config.target_mult);
  return run_experiment(config, profile);
}

}  // namespace sg
