#include "workload/load_generator.hpp"

#include <cmath>

#include "common/assert.hpp"
#include "trace/trace.hpp"

namespace sg {

LoadGenerator::LoadGenerator(Simulator& sim, Network& network,
                             Application& app, LoadGenOptions options)
    : sim_(sim),
      network_(network),
      app_(app),
      options_(options),
      vv_(options.qos, options.vv_window) {
  SG_ASSERT(options_.pattern.base_rate_rps > 0.0);
  network_.register_client_receiver(
      [this](const RpcPacket& pkt) { on_response(pkt); });
}

void LoadGenerator::start() { schedule_next_arrival(); }

void LoadGenerator::schedule_next_arrival() {
  if (stopped_) return;
  // Constant-throughput pacing (wrk2's scheduling model) at the
  // instantaneous rate. When a rate-change boundary lands before the next
  // scheduled arrival, pacing re-synchronizes at the boundary so even
  // spikes shorter than one base-rate gap are generated.
  const TimePoint now = sim_.now();
  const double rate_now = options_.pattern.rate_at(now);
  SG_ASSERT(rate_now > 0.0);
  const Duration gap = std::max(
      Duration::ns(1),
      Duration{static_cast<std::int64_t>(std::llround(1e9 / rate_now))});
  const TimePoint boundary = options_.pattern.next_rate_change(now);
  if (boundary < now + gap) {
    sim_.schedule_at(boundary, [this]() { schedule_next_arrival(); });
  } else {
    sim_.schedule_after(gap, [this]() {
      issue_request();
      schedule_next_arrival();
    });
  }
}

void LoadGenerator::issue_request() {
  const RequestId id = next_request_++;
  const TimePoint now = sim_.now();
  const auto [slot, fresh] = outstanding_.insert(id);
  SG_ASSERT_MSG(fresh, "request id issued twice");
  Outstanding& o = *slot;
  o.start = now;
  if (TraceSink* trace = sim_.trace_sink()) {
    // The request is offered to the sink at its root; the sink's sampling
    // verdict is a pure hash of the request id, never a simulator RNG draw,
    // so traced and untraced runs replay identical event sequences.
    trace->begin_request(id, now);
  }
  if (options_.retry.enabled) {
    o.timer = sim_.schedule_timer(options_.retry.timeout_for_attempt(0),
                                  [this, id]() { on_request_timeout(id); });
  }
  send_request(id, now);
}

void LoadGenerator::send_request(RequestId id, TimePoint start_time) {
  RpcPacket pkt;
  pkt.request_id = id;
  pkt.call_id = 0;
  pkt.src_container = kClientEndpoint;
  pkt.src_node = kClientNode;
  pkt.dst_container = app_.entry_container();
  pkt.dst_node = app_.entry_node();
  pkt.is_response = false;
  pkt.start_time = start_time;  // SurgeGuard startTime stamped at the source
  pkt.upscale = 0;
  network_.send(kClientNode, pkt);
}

void LoadGenerator::on_request_timeout(RequestId id) {
  // The response cancels this timer, so the request is still outstanding.
  Outstanding* found = outstanding_.find(id);
  SG_ASSERT_MSG(found != nullptr, "timeout of a retired request");
  Outstanding& o = *found;
  if (o.attempt < options_.retry.max_retries) {
    ++o.attempt;
    ++retries_;
    o.timer =
        sim_.schedule_timer(options_.retry.timeout_for_attempt(o.attempt),
                            [this, id]() { on_request_timeout(id); });
    // The retransmission keeps the ORIGINAL start_time: latency is measured
    // from the client's first attempt, so retries land in the tail.
    send_request(id, o.start);
    return;
  }
  // Retries exhausted: the client gives up. Accounted as dropped, never as
  // a completion — conservation stays exact.
  ++dropped_;
  if (TraceSink* trace = sim_.trace_sink()) trace->abandon_request(id);
  outstanding_.erase(id);
}

void LoadGenerator::on_response(const RpcPacket& pkt) {
  const Outstanding* o = outstanding_.find(pkt.request_id);
  if (o == nullptr) {
    // Response for a request already completed (dup faults / a retransmit
    // race) or already abandoned. Ignored: one completion per request.
    return;
  }
  if (o->timer != kInvalidEvent) sim_.cancel(o->timer);
  const TimePoint now = sim_.now();
  const Duration latency = now - o->start;
  if (TraceSink* trace = sim_.trace_sink()) {
    // The response's final net-hop span was recorded at delivery (before
    // this receiver ran), so the trace is complete when we seal it here.
    trace->end_request(pkt.request_id, now, latency);
  }
  outstanding_.erase(pkt.request_id);
  ++completed_total_;
  vv_.record_completion(now, latency);
  if (now >= measure_start() && now < measure_end()) {
    histogram_.record(latency);
    ++completed_in_window_;
  }
}

LoadGenResults LoadGenerator::results() {
  vv_.finalize(sim_.now());
  LoadGenResults r;
  r.issued = next_request_ - 1;  // request ids count from 1
  r.completed = completed_in_window_;
  r.completed_total = completed_total_;
  r.retries = retries_;
  r.dropped = dropped_;
  r.outstanding = outstanding_.size();
  r.violation_volume_ms_s =
      vv_.violation_volume_ms_s(measure_start(), measure_end());
  r.violation_duration_frac =
      vv_.violation_duration_fraction(measure_start(), measure_end());
  r.p50 = histogram_.p50();
  r.p98 = histogram_.p98();
  r.p99 = histogram_.p99();
  r.max_latency = histogram_.max();
  r.mean_latency_ns = histogram_.mean();
  r.throughput_rps = static_cast<double>(completed_in_window_) /
                     options_.duration.seconds();
  r.qos = options_.qos;
  return r;
}

}  // namespace sg
