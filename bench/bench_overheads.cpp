// Layer microbenchmarks (google-benchmark) that simbench does not measure.
//
// simbench's per-layer metrics price the event queue, the container PS
// model, the network, the FirstResponder hook, the application visit, the
// controller ticks and trace recording; those are the numbers to quote
// (EXPERIMENTS.md §VI-D). The five cases here have no simbench twin: the
// event queue's push/pop, timer-lane cancel and in-place reschedule, the
// simulator stepped at chain-8n-surge's queue shape, and trace recording
// with many requests in flight and the ring full. They stay here until a
// benchmark change ports them into simbench and this file goes.
#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "net/packet.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "trace/trace.hpp"

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

void BM_EventQueueCancelHeavyLane(benchmark::State& state) {
  // The RPC-timeout shape of a lossy run: 10 000 armed timeouts pending in
  // a timer lane, as Simulator::schedule_timer arms them, so only the lane
  // head is in the heap. Each iteration arms one more, fires the reply, and
  // cancels the timeout.
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
  // One step per iteration at chain-8n-surge's queue shape: 16 staggered
  // periodic chains (a controller loop and a metrics publication per node
  // on 8 nodes, 1 ms ahead of everything else) over 10 request flows, so
  // about 10 events wait near the head and half of the steps are ranked
  // packet deliveries.
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

void BM_TraceSinkInFlight(benchmark::State& state) {
  // Host time per span with 64 requests in flight, their spans interleaved
  // round-robin as concurrent requests' spans are in a run, and the ring
  // full. Each request ends after kSpansPerRequest spans and a new one
  // takes its place; their ends are staggered, so a request's buffer waits
  // 63 other spans between its writes and each completion evicts the
  // oldest kept trace.
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

}  // namespace
}  // namespace sg

BENCHMARK_MAIN();
