// simbench: the measuring half of the simulator benchmark (run.py drives it
// and README.md explains the workloads and metrics).
//
//   simbench run <workload> <seed> [--spans]
//       One run of the workload's experiment: set-up, simulation and (for
//       the traced workload) Chrome-JSON export, then four more set-ups so
//       set-up time is a median. Prints one JSON line: host phase times,
//       the simulated-output fingerprint, the run's counters and, with
//       --spans, one span per public call made.
//   simbench layers <workload>
//       Layer microbenchmarks, each sized to the shape the workload presents
//       (queue depth, periodic chains, spans per request, fault hook).
//       Prints one JSON line of {name: [median_ns, p99_ns, samples]}, plus
//       the shape used and one span per microbenchmark.
//   simbench probe-loop
//       Prints a host-speed sample every 20 ms until stdin closes.
//
// Experiments are driven only through the text-config path (Config ->
// experiment_from_config, as sg_run does), and only the typed
// Duration/TimePoint scheduling overloads are called, so refactors of the
// raw-time API and of the event-loop internals leave this file compiling.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <type_traits>
#include <vector>

#include <poll.h>

#include "app/application.hpp"
#include "cluster/cluster.hpp"
#include "cluster/container.hpp"
#include "common/config.hpp"
#include "controllers/escalator.hpp"
#include "controllers/first_responder.hpp"
#include "controllers/parties.hpp"
#include "core/config_map.hpp"
#include "core/experiment.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "metrics/metrics_bus.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"

namespace {

using namespace sg;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Nanoseconds of a simulated time value, whether the field is still a raw
// count or already a typed quantity.
template <class T>
long long ns_of(T t) {
  if constexpr (std::is_arithmetic_v<T>) {
    return static_cast<long long>(t);
  } else {
    return static_cast<long long>(t.ns());
  }
}

struct Workload {
  const char* name;
  /// Experiment config text; set_up() appends the seed line.
  const char* config;
  /// Microbenchmark shape. queue_depth is the mean event-queue depth of the
  /// workload's experiment sampled every simulated millisecond (the public
  /// experiment API does not expose the queue, so it was sampled once with
  /// an instrumented build; README.md "Layer shapes").
  int queue_depth;
  /// Periodic tick chains armed: a controller loop and a metrics
  /// publication per node.
  int periodic_chains;
  /// Spans one traced request records: read-1n-reqtrace records 1.9 M
  /// spans over 79 k requests, two per packet; CHAIN requests send about
  /// ten packets.
  int spans_per_request;
  /// Whether packets pass a fault-injection send hook.
  bool fault_hook;
};

constexpr Workload kWorkloads[] = {
    {"read-1n-reqtrace",
     "workload = readUserTimeline\n"
     "controller = surgeguard\n"
     "nodes = 1\n"
     "warmup_s = 5\n"
     "duration_s = 30\n"
     "surge.mult = 1.75\n"
     "surge.len_ms = 2000\n"
     "surge.period_s = 10\n"
     "trace.enabled = true\n"
     "trace.sample = 1.0\n"
     "drain_s = 1\n",
     13, 2, 24, false},
    {"chain-8n-surge",
     "workload = chain\n"
     "controller = surgeguard\n"
     "nodes = 8\n"
     "warmup_s = 3\n"
     "duration_s = 12\n"
     "surge.mult = 1.75\n"
     "surge.len_ms = 2000\n"
     "surge.period_s = 10\n"
     "drain_s = 1\n",
     26, 16, 20, false},
    {"chain-2n-chaos",
     "workload = chain\n"
     "controller = parties\n"
     "nodes = 2\n"
     "warmup_s = 3\n"
     "duration_s = 9\n"
     "surge.len_ms = 0\n"
     "retry.enabled = true\n"
     "retry.timeout_ms = 50\n"
     "fault.plan = drop:start_ms=5000,len_ms=2000,rate=0.1\n"
     "drain_s = 5\n",
     10400, 4, 20, true},
    // The cell the figure grids are built from (CHAIN on one node under
    // SurgeGuard), shortened; figs-quick reports its set-up time and
    // simulation rate next to the drivers' own wall time.
    {"figs-quick",
     "workload = chain\n"
     "controller = surgeguard\n"
     "nodes = 1\n"
     "warmup_s = 1\n"
     "duration_s = 4\n"
     "drain_s = 1\n",
     15, 2, 20, false},
};

const Workload* find_workload(const char* name) {
  for (const Workload& w : kWorkloads) {
    if (std::strcmp(w.name, name) == 0) return &w;
  }
  return nullptr;
}

std::string fmt_exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// --- spans recorded around the public calls this harness makes ---

struct Span {
  std::string name;
  double begin_s;
  double end_s;
  int parent;
};

class SpanLog {
 public:
  SpanLog(bool enabled, Clock::time_point origin)
      : enabled_(enabled), origin_(origin) {}

  int open(const char* name) {
    if (!enabled_) return -1;
    spans_.push_back({name, seconds_since(origin_), 0.0, current_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_s = seconds_since(origin_);
    current_ = spans_[static_cast<std::size_t>(id)].parent;
  }
  /// Records a finished top-level span [begin_s, now].
  void add(std::string name, double begin_s) {
    if (!enabled_) return;
    spans_.push_back({std::move(name), begin_s, seconds_since(origin_), -1});
  }
  double now() const { return seconds_since(origin_); }

  std::string json() const {
    std::string list = "[";
    for (const Span& sp : spans_) {
      if (list.size() > 1) list += ",";
      list += "{\"name\":\"" + sp.name + "\",\"begin_s\":" +
              fmt_exact(sp.begin_s) + ",\"end_s\":" + fmt_exact(sp.end_s) +
              ",\"parent\":" + std::to_string(sp.parent) + "}";
    }
    return list + "]";
  }

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  int current_ = -1;
};

// Host-speed probe: fixed work that shares no code with the simulator, in
// the simulator's own mix: a 64-entry binary heap of timestamps (the event
// queue) and a pseudo-random walk over a 1 MiB table (job and visit maps).
// run.py keeps one probe loop per CPU running beside the measured process
// and rescales its host times to a nominal host speed (README.md "Host-speed
// normalisation"). Never change the work it does: that would move every
// normalised figure.
double probe_chunk_seconds() {
  static std::vector<std::uint32_t> table(1u << 18, 1u);
  const Clock::time_point t0 = Clock::now();
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      heap;
  std::uint32_t x = 12345u;
  std::uint64_t sum = 0;
  for (int k = 0; k < 64; ++k) heap.push(static_cast<std::uint64_t>(k));
  for (std::uint32_t k = 0; k < 10'000; ++k) {
    x = x * 1103515245u + 12345u;
    const std::uint64_t now = heap.top();
    heap.pop();
    heap.push(now + (x >> 20));
    const std::uint32_t i = (x >> 8) & ((1u << 18) - 1);
    sum += table[i];
    table[i] ^= k;
  }
  if (sum == 0) std::fprintf(stderr, "probe: empty table\n");
  return seconds_since(t0);
}

// Every 20 ms, one probe chunk, printed as "<monotonic s> <chunk s>", until
// stdin closes. Timestamps are on the CLOCK_MONOTONIC scale Python's
// time.monotonic() reads.
int cmd_probe_loop() {
  pollfd in{0, POLLIN, 0};
  while (poll(&in, 1, 20) == 0) {
    const double chunk = probe_chunk_seconds();
    const double at =
        std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
    std::printf("%.6f %.9f\n", at, chunk);
    std::fflush(stdout);
  }
  return 0;
}

struct SetUp {
  Config file;
  ExperimentConfig config;
  ProfileResult profile;
};

std::optional<SetUp> set_up(const Workload& w, unsigned long long seed,
                            SpanLog& log) {
  const int parse_span = log.open("experiment_from_config");
  const std::string text =
      std::string(w.config) + "seed = " + std::to_string(seed) + "\n";
  std::string error;
  auto file = Config::parse(text, &error);
  std::optional<ExperimentConfig> config;
  if (file) config = experiment_from_config(*file, &error);
  log.close(parse_span);
  if (!config) {
    std::fprintf(stderr, "simbench: bad config for %s: %s\n", w.name,
                 error.c_str());
    return std::nullopt;
  }
  const int profile_span = log.open("profile_workload");
  ProfileResult profile =
      profile_workload(config->workload, config->nodes, config->target_mult);
  apply_target_overrides(*file, config->workload, &profile.targets);
  log.close(profile_span);
  return SetUp{std::move(*file), std::move(*config), std::move(profile)};
}

// FNV-1a: a fingerprint of the exported trace bytes.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

void append_kv(std::string& out, const char* key, const std::string& value,
               bool quote) {
  if (out.back() != '{') out += ",";
  out += "\"";
  out += key;
  out += "\":";
  if (quote) out += "\"";
  out += value;
  if (quote) out += "\"";
}

void append_kv(std::string& out, const char* key, unsigned long long v) {
  append_kv(out, key, std::to_string(v), false);
}

int cmd_run(const Workload& w, unsigned long long seed, bool spans) {
  const Clock::time_point t0 = Clock::now();
  SpanLog log(spans, t0);

  const int setup_span = log.open("set_up");
  auto s = set_up(w, seed, log);
  log.close(setup_span);
  if (!s) return 2;
  const double setup_s = seconds_since(t0);

  std::string fingerprint = "{";
  std::string counts = "{";
  double run_s = 0.0;
  double sim_s = 0.0;
  std::size_t json_bytes = 0;
  {
    const Clock::time_point run0 = Clock::now();
    const int run_span = log.open("run_experiment");
    const ExperimentResult r = run_experiment(s->config, s->profile);
    log.close(run_span);
    run_s = seconds_since(run0);
    const long long sim_ns = ns_of(r.measure_end) + ns_of(s->config.drain);
    sim_s = static_cast<double>(sim_ns) / 1e9;

    // The export span is recorded on untraced workloads too, where it
    // covers only the check that there is nothing to export.
    std::uint64_t json_hash = 0;
    const int export_span = log.open("chrome_trace_json");
    if (r.trace) {
      const std::string json = chrome_trace_json(*r.trace);
      json_bytes = json.size();
      json_hash = fnv1a(json);
    }
    log.close(export_span);

    const LoadGenResults& l = r.load;
    append_kv(fingerprint, "model.vv_ms_s", fmt_exact(l.violation_volume_ms_s),
              true);
    append_kv(fingerprint, "model.p50_ns", std::to_string(ns_of(l.p50)), true);
    append_kv(fingerprint, "model.p98_ns", std::to_string(ns_of(l.p98)), true);
    append_kv(fingerprint, "model.p99_ns", std::to_string(ns_of(l.p99)), true);
    append_kv(fingerprint, "model.completed", std::to_string(l.completed),
              true);
    append_kv(fingerprint, "model.avg_cores", fmt_exact(r.avg_cores), true);
    append_kv(fingerprint, "model.energy_j", fmt_exact(r.energy_joules), true);
    append_kv(fingerprint, "fault.digest", r.faults.digest(), true);
    append_kv(fingerprint, "loadgen.retries", std::to_string(l.retries), true);
    append_kv(fingerprint, "loadgen.dropped", std::to_string(l.dropped), true);
    append_kv(fingerprint, "app.rpc_retries",
              std::to_string(r.app_rpc_retries), true);
    append_kv(fingerprint, "app.rpc_failures",
              std::to_string(r.app_rpc_failures), true);
    append_kv(fingerprint, "sim.events", std::to_string(r.events_processed),
              true);
    append_kv(fingerprint, "trace.json_fnv1a", std::to_string(json_hash),
              true);
    fingerprint += "}";

    append_kv(counts, "sim.events", r.events_processed);
    append_kv(counts, "net.dropped", r.faults.packets_dropped);
    append_kv(counts, "app.requests", l.completed_total);
    append_kv(counts, "app.rpc_retries", r.app_rpc_retries);
    append_kv(counts, "app.rpc_failures", r.app_rpc_failures);
    append_kv(counts, "app.stray_responses", r.app_stray_responses);
    append_kv(counts, "loadgen.issued", l.issued);
    append_kv(counts, "loadgen.completed", l.completed_total);
    append_kv(counts, "loadgen.retries", l.retries);
    append_kv(counts, "loadgen.dropped", l.dropped);
    append_kv(counts, "loadgen.outstanding", l.outstanding);
    append_kv(counts, "fr.packets", r.fr_packets);
    append_kv(counts, "fr.violations", r.fr_violations);
    append_kv(counts, "fr.boosts", r.fr_boosts);
    append_kv(counts, "ctrl.ticks_stalled", r.controller_ticks_stalled);
    const TraceStats ts = r.trace ? r.trace->stats : TraceStats{};
    append_kv(counts, "trace.spans", ts.spans_recorded);
    append_kv(counts, "trace.kept", ts.requests_kept);
    append_kv(counts, "trace.evicted", ts.traces_evicted);
    append_kv(counts, "trace.json_bytes", json_bytes);
    counts += "}";
  }  // the result (and its trace snapshot) is freed inside the timed run
  const double wall_s = seconds_since(t0);

  // Set-up time is reported as a median of five; the extra four run after
  // the timed run so they do not count toward wall_s.
  std::vector<double> setups = {setup_s};
  for (int i = 0; i < 4; ++i) {
    SpanLog quiet(false, t0);
    const Clock::time_point s0 = Clock::now();
    if (!set_up(w, seed, quiet)) return 2;
    setups.push_back(seconds_since(s0));
  }
  std::sort(setups.begin(), setups.end());

  std::string out = "{";
  append_kv(out, "wall_s", fmt_exact(wall_s), false);
  append_kv(out, "setup_s", fmt_exact(setups[2]), false);
  append_kv(out, "run_s", fmt_exact(run_s), false);
  append_kv(out, "sim_s", fmt_exact(sim_s), false);
  append_kv(out, "fingerprint", fingerprint, false);
  append_kv(out, "counts", counts, false);
  append_kv(out, "spans", log.json(), false);
  out += "}";
  std::printf("%s\n", out.c_str());
  return 0;
}

// --- layer microbenchmarks ---

struct Stat {
  double p50 = 0.0;
  double p99 = 0.0;
  int n = 0;
};

constexpr int kSamples = 1000;

Stat summarize(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  Stat s;
  s.n = static_cast<int>(v.size());
  s.p50 = v[v.size() / 2];
  // Nearest rank: with 1000 samples, 10 lie above the reported p99.
  s.p99 = v[(v.size() * 99 + 99) / 100 - 1];
  return s;
}

// Times `ops` calls of op() per sample, after one untimed warm-up sample
// set of a tenth the size; returns per-call ns divided by `per`.
template <class Op>
Stat sample(int ops, double per, Op&& op) {
  for (int i = 0; i < kSamples / 10 * ops; ++i) op();
  std::vector<double> v;
  v.reserve(kSamples);
  for (int s = 0; s < kSamples; ++s) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < ops; ++i) op();
    v.push_back(seconds_since(t0) * 1e9 / ops / per);
  }
  return summarize(std::move(v));
}

// Pending events far in the future, so the queue has the workload's depth.
void prefill(Simulator& sim, int depth) {
  for (int i = 0; i < depth; ++i) {
    sim.schedule_after(Duration::sec(1'000'000) + Duration::ns(i), [] {});
  }
}

// One node hosting the workload's application, idle: the fixture for the
// controller and FirstResponder microbenchmarks.
struct Testbed {
  Simulator sim{1};
  Cluster cluster{sim};
  Network network{sim};
  MetricsPlane metrics{1};
  std::unique_ptr<Application> app;
  ControllerEnv env;

  Testbed(const WorkloadInfo& w, const TargetMap& targets, int depth) {
    cluster.add_node(64, 19);
    app = std::make_unique<Application>(cluster, network, metrics, w.spec,
                                        Deployment::single_node(w.spec, 0, 2));
    env.sim = &sim;
    env.cluster = &cluster;
    env.node = &cluster.node(0);
    env.bus = &metrics.node_bus(0);
    env.app = app.get();
    env.topology = app->topology();
    env.targets = targets;
    prefill(sim, depth);
  }
};

// Microbenchmark results, each with a span from the end of the previous
// one (fixture set-up included) to its own end.
class LayerReport {
 public:
  void add(const std::string& name, const Stat& s) {
    json_ += ",\"" + name + "\":[" + fmt_exact(s.p50) + "," +
             fmt_exact(s.p99) + "," + std::to_string(s.n) + "]";
    const double begin = last_;
    last_ = log_.now();
    log_.add(name, begin);
  }
  const std::string& json() const { return json_; }
  std::string spans_json() const { return log_.json(); }

 private:
  SpanLog log_{true, Clock::now()};
  double last_ = 0.0;
  std::string json_;
};

int cmd_layers(const Workload& w) {
  SpanLog quiet(false, Clock::now());
  auto s = set_up(w, 1, quiet);
  if (!s) return 2;
  const int depth = w.queue_depth;
  LayerReport out;
  auto noop = [] {};

  {
    Simulator sim(1);
    prefill(sim, depth);
    out.add("sim.schedule_step_ns", sample(100, 1, [&] {
      sim.schedule_after(Duration::ns(10), noop);
      sim.step();
    }));
  }
  {
    // The RPC-timeout pattern: arm a timeout, deliver the reply first,
    // cancel the timeout; its stale entry is dropped by the next step.
    Simulator sim(1);
    prefill(sim, depth);
    out.add("sim.cancel_ns", sample(100, 1, [&] {
      const auto timeout = sim.schedule_after(Duration::ns(20), noop);
      sim.schedule_after(Duration::ns(10), noop);
      sim.step();
      sim.cancel(timeout);
    }));
  }
  {
    Simulator sim(1);
    prefill(sim, depth);
    for (int k = 0; k < w.periodic_chains; ++k) {
      sim.schedule_periodic(TimePoint::origin() + Duration::us(k + 1),
                            Duration::ms(1), [] { return true; });
    }
    out.add("sim.periodic_tick_ns", sample(100, 1, [&] { sim.step(); }));
  }
  for (int backlog : {8, 64, 512}) {
    Simulator sim(1);
    prefill(sim, depth);
    Container::Params params;
    params.name = "bench";
    params.initial_cores = 4;
    Container c(sim, std::move(params));
    for (int i = 0; i < backlog; ++i) c.submit(1e15, [] {});
    const std::string name =
        "cluster.submit_complete_ns.b" + std::to_string(backlog);
    out.add(name, sample(100, 1, [&] {
      c.submit(100.0, [] {});
      sim.step();
    }));
  }
  for (bool faulted : {false, true}) {
    Simulator sim(1);
    prefill(sim, depth);
    Network net(sim);
    net.register_receiver(0, [](const RpcPacket&) {});
    std::string error;
    auto plan = FaultPlan::parse("drop:start_ms=0,len_ms=100000000,rate=0.1",
                                 &error);
    if (!plan) {
      std::fprintf(stderr, "simbench: bad fault plan: %s\n", error.c_str());
      return 2;
    }
    FaultInjector injector(sim, *plan);
    if (faulted) injector.arm(&net, nullptr);
    const std::size_t idle = sim.events_pending();
    RpcPacket pkt;
    pkt.dst_container = 0;
    pkt.dst_node = 0;
    pkt.src_node = 0;
    out.add(faulted ? "net.send_deliver_fault_ns" : "net.send_deliver_ns",
            sample(100, 1, [&] {
              net.send(0, pkt);
              if (sim.events_pending() > idle) sim.step();  // else dropped
            }));
  }
  {
    Testbed tb(s->config.workload, s->profile.targets, depth);
    FirstResponder fr(tb.env, tb.network);
    fr.start();
    RpcPacket pkt;
    pkt.dst_container = tb.app->entry_container();
    pkt.dst_node = 0;
    pkt.start_time = TimePoint::origin();  // positive slack: check only
    out.add("fr.slack_check_ns", sample(100, 1, [&] { fr.on_packet(pkt); }));

    // Violation path: the packet is 100 ms late; simulated time advances
    // past the freeze window between samples, untimed.
    std::vector<double> v;
    v.reserve(kSamples);
    for (int i = 0; i < kSamples + kSamples / 10; ++i) {
      tb.sim.run_until(tb.sim.now_point() + Duration::ms(10));
      pkt.start_time = tb.sim.now_point() - Duration::ms(100);
      const Clock::time_point t0 = Clock::now();
      fr.on_packet(pkt);
      if (i >= kSamples / 10) v.push_back(seconds_since(t0) * 1e9);
    }
    out.add("fr.violation_ns", summarize(std::move(v)));
  }
  {
    Testbed tb(s->config.workload, s->profile.targets, depth);
    Escalator esc(tb.env);
    esc.start();
    tb.sim.run_until(tb.sim.now_point() + Duration::ms(200));
    out.add("ctrl.escalator_tick_ns", sample(10, 1, [&] { esc.tick(); }));
  }
  {
    Testbed tb(s->config.workload, s->profile.targets, depth);
    PartiesController parties(tb.env);
    parties.start();
    tb.sim.run_until(tb.sim.now_point() + Duration::ms(600));
    out.add("ctrl.parties_tick_ns", sample(10, 1, [&] { parties.tick(); }));
  }
  {
    TraceSink sink(TraceOptions{});
    RequestId id = 0;
    TimePoint t = TimePoint::origin();
    out.add("trace.span_ns", sample(1, w.spans_per_request, [&] {
      ++id;
      sink.begin_request(id, t);
      TraceSpan span;
      span.request_id = id;
      for (int k = 0; k < w.spans_per_request; ++k) {
        span.container = k;
        span.begin = t;
        t += Duration::us(10);
        span.end = t;
        sink.add_span(span);
      }
      sink.end_request(id, t, Duration::us(10 * w.spans_per_request));
    }));
  }

  const std::string line =
      "{\"shape\":{\"queue_depth\":" + std::to_string(depth) +
      ",\"periodic_chains\":" + std::to_string(w.periodic_chains) +
      ",\"spans_per_request\":" + std::to_string(w.spans_per_request) +
      ",\"fault_hook\":" + (w.fault_hook ? "1" : "0") + "}" + out.json() +
      ",\"spans\":" + out.spans_json() + "}";
  std::printf("%s\n", line.c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: simbench run <workload> <seed> [--spans]\n"
               "       simbench layers <workload>\n"
               "       simbench probe-loop\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "probe-loop") == 0) {
    return cmd_probe_loop();
  }
  if (argc < 3) return usage();
  const Workload* w = find_workload(argv[2]);
  if (w == nullptr) {
    std::fprintf(stderr, "simbench: unknown workload %s\n", argv[2]);
    return 2;
  }
  if (std::strcmp(argv[1], "run") == 0 && argc >= 4) {
    char* end = nullptr;
    const unsigned long long seed = std::strtoull(argv[3], &end, 10);
    if (end == argv[3] || *end != '\0') return usage();
    const bool spans = argc >= 5 && std::strcmp(argv[4], "--spans") == 0;
    return cmd_run(*w, seed, spans);
  }
  if (std::strcmp(argv[1], "layers") == 0) return cmd_layers(*w);
  return usage();
}
