// §VI-D overheads: real wall-clock microbenchmarks (google-benchmark) of
// the code that sits on hot paths.
//
// The paper reports: 0.26us per packet for FirstResponder's critical-path
// slack check, 0.44us to enqueue a work item toward the worker thread, and
// 2.1us for the off-path MSR write. The simulated counterparts here are the
// per-packet hook invocation, event scheduling, and the frequency update;
// this bench verifies the simulator's own hot paths are cheap enough that
// the figure benches measure controller behaviour, not harness overhead.
#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <vector>

#include "app/workloads.hpp"
#include "common/assert.hpp"
#include "common/rng.hpp"
#include "controllers/first_responder.hpp"
#include "net/packet.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"
#include "workload/load_generator.hpp"

namespace sg {
namespace {

void BM_EventQueuePushPop(benchmark::State& state) {
  EventQueue q;
  TimePoint t;
  for (auto _ : state) {
    t += kNanosecond;
    q.push(t, []() {});
    q.pop().run();
  }
}
BENCHMARK(BM_EventQueuePushPop);

void BM_EventQueueCancelHeavy(benchmark::State& state) {
  // The RPC-timeout shape of a lossy run: 10 000 armed timeouts pending;
  // each iteration arms one more, fires the reply, and cancels the timeout.
  EventQueue q;
  const Duration timeout = 50 * kMillisecond;
  TimePoint t;
  for (int i = 0; i < 10'000; ++i) {
    t += kNanosecond;
    q.push(t + timeout, []() {});
  }
  for (auto _ : state) {
    t += kNanosecond;
    const EventId armed = q.push(t + timeout, []() {});
    q.push(t, []() {});
    q.pop().run();
    benchmark::DoNotOptimize(q.cancel(armed));
  }
}
BENCHMARK(BM_EventQueueCancelHeavy);

void BM_EventQueueCancelHeavyLane(benchmark::State& state) {
  // BM_EventQueueCancelHeavy with the timeouts in a timer lane, as
  // Simulator::schedule_timer arms them: only the lane head is in the heap.
  EventQueue q;
  const Duration timeout = 50 * kMillisecond;
  TimePoint t;
  for (int i = 0; i < 10'000; ++i) {
    t += kNanosecond;
    q.push_lane(0, t + timeout, []() {});
  }
  for (auto _ : state) {
    t += kNanosecond;
    const EventId armed = q.push_lane(0, t + timeout, []() {});
    q.push(t, []() {});
    q.pop().run();
    benchmark::DoNotOptimize(q.cancel(armed));
  }
}
BENCHMARK(BM_EventQueueCancelHeavyLane);

void BM_EventQueueReschedule(benchmark::State& state) {
  // A container's completion event re-armed on every submit and
  // completion, in a heap 26 deep (25 other pending events). in_place:1
  // re-keys it with reschedule(); in_place:0 cancels it and pushes a new
  // one, the re-arm it replaces. The new times cycle through seeded
  // offsets spread across the other events', so sifts go both ways.
  const bool in_place = state.range(0) != 0;
  EventQueue q;
  const TimePoint base = TimePoint::at(kMillisecond);
  for (int i = 0; i < 25; ++i) q.push(base + Duration::ns(40 * i), []() {});
  Rng rng(5);
  std::vector<TimePoint> times(64);
  for (TimePoint& t : times) {
    t = base + Duration::ns(rng.uniform_int(0, 1000));
  }
  EventId armed = q.push(times.back(), []() {});
  std::size_t next = 0;
  for (auto _ : state) {
    const TimePoint t = times[next];
    next = (next + 1) & (times.size() - 1);
    if (in_place) {
      benchmark::DoNotOptimize(q.reschedule(armed, t));
    } else {
      q.cancel(armed);
      armed = q.push(t, []() {});
    }
    benchmark::DoNotOptimize(armed);
  }
  SG_ASSERT(q.size() == 26);
}
BENCHMARK(BM_EventQueueReschedule)->ArgName("in_place")->Arg(1)->Arg(0);

void BM_SimulatorScheduleRun(benchmark::State& state) {
  Simulator sim;
  for (auto _ : state) {
    sim.schedule_after(10 * kNanosecond, []() {});
    sim.step();
  }
}
BENCHMARK(BM_SimulatorScheduleRun);

void BM_SimulatorPeriodicTick(benchmark::State& state) {
  // One periodic firing per iteration, among 16 staggered chains (a
  // controller loop and a metrics publication per node on 8 nodes).
  Simulator sim;
  std::uint64_t ticks = 0;
  for (int k = 0; k < 16; ++k) {
    sim.schedule_periodic(TimePoint::at(Duration::us(k + 1)), kMillisecond,
                          [&ticks]() {
                            ++ticks;
                            return true;
                          });
  }
  for (auto _ : state) {
    sim.step();
  }
  benchmark::DoNotOptimize(ticks);
}
BENCHMARK(BM_SimulatorPeriodicTick);

// Request flows of BM_SimulatorChain8nShape: each alternates a near-term
// completion with a ranked delivery that carries an RpcPacket, as Network's
// deliveries do.
class PacketFlows {
 public:
  PacketFlows(Simulator& sim, int flows) : sim_(sim) {
    Rng rng(7);
    for (Duration& d : delays_) d = Duration::ns(rng.uniform_int(500, 20'000));
    for (int f = 0; f < flows; ++f) complete(f);
  }
  std::uint64_t delivered() const { return delivered_; }

 private:
  Duration next_delay() {
    next_ = (next_ + 1) % delays_.size();
    return delays_[next_];
  }
  void complete(int flow) {
    RpcPacket pkt;
    pkt.call_id = static_cast<std::uint64_t>(flow);
    sim_.schedule_at_ranked(sim_.now() + next_delay(), rank_++,
                            [this, pkt]() { deliver(pkt); });
  }
  void deliver(const RpcPacket& pkt) {
    ++delivered_;
    const int flow = static_cast<int>(pkt.call_id);
    sim_.schedule_after(next_delay(), [this, flow]() { complete(flow); });
  }

  Simulator& sim_;
  std::array<Duration, 64> delays_{};
  std::size_t next_ = 0;
  std::uint64_t rank_ = 1;
  std::uint64_t delivered_ = 0;
};

void BM_SimulatorChain8nShape(benchmark::State& state) {
  // One step per iteration at chain-8n-surge's queue shape: the 16
  // periodic chains of BM_SimulatorPeriodicTick (1 ms ahead of everything
  // else) over 10 request flows, so about 10 events wait near the head and
  // half of the steps are ranked packet deliveries.
  Simulator sim;
  std::uint64_t ticks = 0;
  for (int k = 0; k < 16; ++k) {
    sim.schedule_periodic(TimePoint::at(Duration::us(k + 1)), kMillisecond,
                          [&ticks]() {
                            ++ticks;
                            return true;
                          });
  }
  PacketFlows flows(sim, 10);
  for (auto _ : state) {
    sim.step();
  }
  benchmark::DoNotOptimize(ticks);
  benchmark::DoNotOptimize(flows.delivered());
}
BENCHMARK(BM_SimulatorChain8nShape);

void BM_ContainerSubmitComplete(benchmark::State& state) {
  Simulator sim;
  Container::Params params;
  params.name = "bench";
  params.initial_cores = 4;
  Container c(sim, std::move(params));
  for (auto _ : state) {
    c.submit(100.0, []() {});
    sim.step();
  }
}
BENCHMARK(BM_ContainerSubmitComplete);

void BM_ContainerPsWithBacklog(benchmark::State& state) {
  // Completion cost with many concurrent jobs (the surge regime).
  Simulator sim;
  Container::Params params;
  params.name = "bench";
  params.initial_cores = 4;
  Container c(sim, std::move(params));
  const int backlog = static_cast<int>(state.range(0));
  for (int i = 0; i < backlog; ++i) c.submit(1e15, []() {});
  for (auto _ : state) {
    c.submit(100.0, []() {});
    sim.step();
  }
}
BENCHMARK(BM_ContainerPsWithBacklog)->Arg(8)->Arg(64)->Arg(512);

struct HookFixture {
  Simulator sim{1};
  Cluster cluster{sim};
  Network network{sim};
  MetricsPlane metrics{1};
  std::unique_ptr<Application> app;
  std::unique_ptr<FirstResponder> fr;

  HookFixture() {
    cluster.add_node(64, 19);
    AppSpec spec;
    spec.name = "hook";
    ServiceSpec a;
    a.name = "a";
    a.children = {1};
    ServiceSpec b;
    b.name = "b";
    spec.services = {a, b};
    app = std::make_unique<Application>(cluster, network, metrics, spec,
                                        Deployment::single_node(spec, 0, 2));
    ControllerEnv env;
    env.sim = &sim;
    env.cluster = &cluster;
    env.node = &cluster.node(0);
    env.bus = &metrics.node_bus(0);
    env.app = app.get();
    env.topology = app->topology();
    ContainerTargets t;
    t.expected_exec_metric_ns = 1e6;
    t.expected_time_from_start = Duration::ms(1);
    env.targets.per_container[app->entry_container()] = t;
    env.targets.expected_e2e_latency = Duration::ms(1);
    fr = std::make_unique<FirstResponder>(std::move(env), network);
    fr->start();
  }
};

void BM_FirstResponderSlackCheck(benchmark::State& state) {
  // The per-packet critical-path cost (paper: 0.26us on their kernel path).
  HookFixture fx;
  RpcPacket pkt;
  pkt.dst_container = fx.app->entry_container();
  pkt.dst_node = 0;
  pkt.start_time = TimePoint::origin();  // slack positive: pure check, no boost
  for (auto _ : state) {
    fx.fr->on_packet(pkt);
  }
  benchmark::DoNotOptimize(fx.fr->packets_inspected());
}
BENCHMARK(BM_FirstResponderSlackCheck);

void BM_FirstResponderViolationPath(benchmark::State& state) {
  // Detection + work-item handoff (boost event scheduling).
  HookFixture fx;
  RpcPacket pkt;
  pkt.dst_container = fx.app->entry_container();
  pkt.dst_node = 0;
  for (auto _ : state) {
    state.PauseTiming();
    // Make the packet violating and un-freeze the path.
    fx.sim.run_until(fx.sim.now() + 10 * kMillisecond);
    pkt.start_time = fx.sim.now() - Duration::ms(100);
    state.ResumeTiming();
    fx.fr->on_packet(pkt);
  }
}
BENCHMARK(BM_FirstResponderViolationPath);

void BM_ApplicationRequest(benchmark::State& state) {
  // Host time per completed CHAIN request (the application-visit layer):
  // five visits, four child RPCs with their pool acquires, ten PS jobs and
  // twelve deliveries, on a warm 1-node testbed with tracing off.
  Simulator sim(7);
  Cluster cluster(sim);
  cluster.add_node(64, 19);
  Network network(sim);
  MetricsPlane metrics(1);
  const WorkloadInfo chain = make_chain();
  Application app(cluster, network, metrics, chain.spec,
                  Deployment::single_node(chain.spec, 0, 2));
  std::uint64_t completed = 0;
  network.register_client_receiver(
      [&completed](const RpcPacket&) { ++completed; });
  RpcPacket pkt;
  pkt.src_container = kClientEndpoint;
  pkt.src_node = kClientNode;
  pkt.dst_container = app.entry_container();
  pkt.dst_node = app.entry_node();
  auto one_request = [&]() {
    ++pkt.request_id;
    pkt.start_time = sim.now();
    network.send(kClientNode, pkt);
    sim.run_to_completion();
  };
  for (int i = 0; i < 1000; ++i) one_request();  // warm every arena and pool
  for (auto _ : state) one_request();
  SG_ASSERT(completed == app.requests_completed());
  benchmark::DoNotOptimize(completed);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ApplicationRequest);

/// Spans per traced request, about what a readUserTimeline request records.
constexpr int kSpansPerRequest = 24;

/// A request's k-th span: the spans cycle through the four kinds on 12
/// containers, each 10 us long from `t` on.
TraceSpan request_span(RequestId id, int k, TimePoint& t) {
  TraceSpan span;
  span.request_id = id;
  span.kind = static_cast<SpanKind>(k % 4);
  span.container = k % 12;
  span.src_container = (k + 11) % 12;
  span.is_response = k % 8 == 3;
  span.begin = t;
  t += Duration::us(10);
  span.end = t;
  span.cpu_served_ns = 7'500.0 + k;
  span.boost_active_ns = 1'250.5 * k;
  return span;
}

/// Records one request's kSpansPerRequest spans back to back.
void record_request(TraceSink& sink, RequestId id, TimePoint& t) {
  sink.begin_request(id, t);
  for (int k = 0; k < kSpansPerRequest; ++k) {
    sink.add_span(request_span(id, k, t));
  }
  sink.end_request(id, t, Duration::us(10 * kSpansPerRequest));
}

void BM_TraceSinkSteadyState(benchmark::State& state) {
  // Host time per traced request once the kept-trace ring is full, so each
  // completion evicts the oldest trace (simbench's trace.span_ns samples
  // never fill the ring).
  const TraceOptions opts;
  TraceSink sink(opts);
  RequestId id = 0;
  TimePoint t;
  for (std::size_t i = 0; i < 2 * opts.capacity; ++i) {
    record_request(sink, ++id, t);
  }
  for (auto _ : state) record_request(sink, ++id, t);
  SG_ASSERT(sink.kept_count() == opts.capacity);
  state.SetItemsProcessed(state.iterations() * kSpansPerRequest);
}
BENCHMARK(BM_TraceSinkSteadyState);

void BM_TraceSinkInFlight(benchmark::State& state) {
  // Host time per span with 64 requests in flight, their spans interleaved
  // round-robin as concurrent requests' spans are in a run, and the ring
  // full. Each request ends after kSpansPerRequest spans and a new one
  // takes its place; their ends are staggered. Unlike the steady-state
  // bench, a request's buffer waits 63 other spans between its writes.
  constexpr int kInFlight = 64;
  const TraceOptions opts;
  TraceSink sink(opts);
  RequestId id = 0;
  TimePoint t;
  for (std::size_t i = 0; i < 2 * opts.capacity; ++i) {
    record_request(sink, ++id, t);
  }
  struct Flight {
    RequestId id = 0;
    int spans = 0;
  };
  std::array<Flight, kInFlight> flights;
  for (int i = 0; i < kInFlight; ++i) {
    flights[i] = {++id, i % kSpansPerRequest};
    sink.begin_request(flights[i].id, t);
  }
  for (auto _ : state) {
    for (Flight& f : flights) {
      sink.add_span(request_span(f.id, f.spans, t));
      if (++f.spans == kSpansPerRequest) {
        sink.end_request(f.id, t, Duration::us(10 * kSpansPerRequest));
        f = {++id, 0};
        sink.begin_request(f.id, t);
      }
    }
  }
  SG_ASSERT(sink.kept_count() == opts.capacity);
  SG_ASSERT(sink.pending_count() == kInFlight);
  state.SetItemsProcessed(state.iterations() * kInFlight);
}
BENCHMARK(BM_TraceSinkInFlight);

void BM_ChromeTraceJson(benchmark::State& state) {
  // The Chrome-JSON export of a full default ring: 4 096 traces of 24 spans.
  const TraceOptions opts;
  TraceSink sink(opts);
  RequestId id = 0;
  TimePoint t;
  for (std::size_t i = 0; i < opts.capacity; ++i) {
    record_request(sink, ++id, t);
  }
  std::vector<TraceContainerInfo> info;
  for (int c = 0; c < 12; ++c) {
    info.push_back({c, 0, "socialNetwork/service-" + std::to_string(c)});
  }
  sink.set_container_info(std::move(info));
  const TraceReport report = sink.report();
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string json = chrome_trace_json(report);
    bytes = json.size();
    benchmark::DoNotOptimize(json.data());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * bytes));
}
BENCHMARK(BM_ChromeTraceJson)->Unit(benchmark::kMillisecond);

void BM_SimulatedSecondThroughput(benchmark::State& state) {
  // Events per wall-second for a realistic full testbed: the number that
  // bounds every figure bench's wall-clock time.
  for (auto _ : state) {
    Simulator sim(7);
    Cluster cluster(sim);
    cluster.add_node(64, 19);
    Network network(sim);
    MetricsPlane metrics(1);
    AppSpec spec;
    spec.name = "tput";
    ServiceSpec a;
    a.name = "a";
    a.work_ns_mean = 100'000;
    a.children = {1};
    ServiceSpec b;
    b.name = "b";
    b.work_ns_mean = 100'000;
    spec.services = {a, b};
    Application app(cluster, network, metrics, spec,
                    Deployment::single_node(spec, 0, 4));
    LoadGenOptions opts;
    opts.pattern = SpikePattern::steady(5000);
    opts.qos = 10 * kMillisecond;
    opts.warmup = Duration::zero();
    opts.duration = 1 * kSecond;
    LoadGenerator gen(sim, network, app, opts);
    gen.start();
    sim.run_until(TimePoint::at(1 * kSecond));
    state.counters["events_per_sim_s"] =
        static_cast<double>(sim.events_processed());
  }
}
BENCHMARK(BM_SimulatedSecondThroughput)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sg

BENCHMARK_MAIN();
