#include "net/network.hpp"

#include <utility>

#include "common/assert.hpp"
#include "trace/trace.hpp"

namespace sg {

Network::Network(Simulator& sim, NetworkLatencyModel model)
    : sim_(sim),
      model_(model),
      rng_(sim.rng().fork()),
      delivery_seq_(1, 0),
      extra_delay_(1, model.extra_delay) {}

void Network::configure_node_streams(int node_count) {
  SG_ASSERT_MSG(node_count >= 1, "network needs at least one node");
  SG_ASSERT_MSG(!per_node_streams_, "node streams already configured");
  per_node_streams_ = true;
  // Derived from the network's own stream in a fixed order at setup time.
  client_stream_ = rng_.fork();
  node_streams_.reserve(static_cast<std::size_t>(node_count));
  for (int n = 0; n < node_count; ++n) node_streams_.push_back(rng_.fork());
  delivery_seq_.assign(static_cast<std::size_t>(node_count) + 1, 0);
  extra_delay_.assign(static_cast<std::size_t>(node_count) + 1,
                      model_.extra_delay);
}

void Network::register_receiver(int container, Receiver receiver) {
  SG_ASSERT_MSG(container != kClientEndpoint,
                "use register_client_receiver for the client endpoint");
  receivers_[container] = std::move(receiver);
}

void Network::register_client_receiver(Receiver receiver) {
  client_receiver_ = std::move(receiver);
}

void Network::add_rx_hook(int node, RxHook* hook) {
  SG_ASSERT(hook != nullptr);
  hooks_[node].push_back(hook);
}

std::size_t Network::delay_slot(int src_node) const {
  if (!per_node_streams_) return 0;
  const auto slot = static_cast<std::size_t>(src_node + 1);
  SG_ASSERT_MSG(slot < extra_delay_.size(), "unknown source node");
  return slot;
}

void Network::set_extra_delay(Duration d) {
  for (Duration& slot : extra_delay_) slot = d;
}

void Network::set_extra_delay_for(int src_node, Duration d) {
  extra_delay_[delay_slot(src_node)] = d;
}

Rng& Network::stream_for(int src_node) {
  if (!per_node_streams_) return rng_;
  if (src_node < 0) return client_stream_;
  SG_ASSERT_MSG(static_cast<std::size_t>(src_node) < node_streams_.size(),
                "unknown source node");
  return node_streams_[static_cast<std::size_t>(src_node)];
}

std::uint64_t Network::next_delivery_rank(int src_node) {
  const auto slot = static_cast<std::size_t>(src_node + 1);
  SG_ASSERT_MSG(slot < delivery_seq_.size() || !per_node_streams_,
                "unknown source node");
  if (slot >= delivery_seq_.size()) delivery_seq_.resize(slot + 1, 0);
  // Canonical rank: (source node, per-source sequence). Each source's
  // sequence follows its own local send order; same-nanosecond deliveries
  // tie-break on it instead of on insertion order.
  return (static_cast<std::uint64_t>(src_node + 2) << 40) |
         delivery_seq_[slot]++;
}

Duration Network::sample_latency(int src_node, int dst_node) {
  const Duration base =
      src_node == dst_node ? model_.same_node : model_.cross_node;
  const double scale =
      stream_for(src_node).uniform(1.0 - model_.jitter, 1.0 + model_.jitter);
  Duration latency = base * scale;
  latency += extra_delay_[delay_slot(src_node)];
  return latency < Duration::zero() ? Duration::zero() : latency;
}

void Network::schedule_delivery(int src_node, const RpcPacket& pkt,
                                Duration latency) {
  auto delivery = [this, pkt]() { deliver(pkt); };
  // One of these per packet: keep the closure inside its event slot.
  static_assert(EventQueue::Callback::stores_inline<decltype(delivery)>);
  sim_.schedule_at_ranked(sim_.now() + latency, next_delivery_rank(src_node),
                          std::move(delivery));
}

void Network::send(int src_node, const RpcPacket& pkt_in) {
  // Packets are value types: the copy in the closures below is the wire
  // copy. Traced packets get their send time stamped on it so delivery can
  // record the transit as a net-hop span.
  RpcPacket pkt = pkt_in;
  if (pkt.traced) pkt.sent_at = sim_.now();
  if (fault_hook_ != nullptr) {
    const PacketFate fate = fault_hook_->on_send(pkt);
    if (fate.drop) {
      // Lost on the wire: neither rx hooks nor the receiver ever see it.
      ++packets_dropped_;
      return;
    }
    const Duration latency =
        sample_latency(src_node, pkt.dst_node) + fate.extra_delay;
    schedule_delivery(src_node, pkt, latency);
    if (fate.duplicate) {
      ++packets_duplicated_;
      // The duplicate travels independently: its own latency draw (plus the
      // same fault delay), its own delivery, its own trip through the rx
      // hook chain.
      const Duration dup_latency =
          sample_latency(src_node, pkt.dst_node) + fate.extra_delay;
      schedule_delivery(src_node, pkt, dup_latency);
    }
    return;
  }
  const Duration latency = sample_latency(src_node, pkt.dst_node);
  schedule_delivery(src_node, pkt, latency);
}

void Network::deliver(const RpcPacket& pkt) {
  ++packets_delivered_;
  if (pkt.traced) {
    // Span recorded BEFORE the receiver runs, so a response's final hop is
    // buffered before the client completes (and flushes) the request.
    if (TraceSink* trace = sim_.trace_sink()) {
      TraceSpan span;
      span.request_id = pkt.request_id;
      span.kind = SpanKind::kNetHop;
      span.container = pkt.dst_container;
      span.src_container = pkt.src_container;
      span.begin = pkt.sent_at;
      span.end = sim_.now();
      span.is_response = pkt.is_response;
      trace->add_span(span);
    }
  }
  // Receive-side hook chain: the netif_receive_skb attachment point. Hooks
  // see the packet before the destination container does.
  if (const auto hit = hooks_.find(pkt.dst_node); hit != hooks_.end()) {
    for (RxHook* hook : hit->second) hook->on_packet(pkt);
  }
  if (pkt.dst_container == kClientEndpoint) {
    SG_ASSERT_MSG(client_receiver_, "no client receiver registered");
    client_receiver_(pkt);
    return;
  }
  const auto it = receivers_.find(pkt.dst_container);
  SG_ASSERT_MSG(it != receivers_.end(), "packet to unregistered container");
  it->second(pkt);
}

}  // namespace sg
