#include "net/network.hpp"

#include <utility>

#include "common/assert.hpp"
#include "trace/trace.hpp"

namespace sg {

Network::Network(Simulator& sim, NetworkLatencyModel model, int node_count)
    : sim_(sim), model_(model) {
  SG_ASSERT_MSG(node_count >= 1, "network needs at least one node");
  // The network takes one fork of the simulator's stream and derives every
  // sender's stream from it in slot order, so each sender's jitter is a
  // pure function of its own send sequence.
  Rng root = sim.rng().fork();
  const auto slots = static_cast<std::size_t>(node_count) + 1;
  senders_.reserve(slots);
  for (std::size_t s = 0; s < slots; ++s) {
    senders_.push_back({root.fork(), 0});
  }
  hooks_.resize(slots);
}

std::size_t Network::slot_of(int node) const {
  SG_ASSERT_MSG(node >= kClientNode && node < node_count(), "unknown node");
  return static_cast<std::size_t>(node + 1);
}

void Network::register_receiver(int container, Receiver receiver) {
  SG_ASSERT_MSG(container >= 0,
                "use register_client_receiver for the client endpoint");
  const auto id = static_cast<std::size_t>(container);
  if (id >= receivers_.size()) receivers_.resize(id + 1);
  receivers_[id] = std::move(receiver);
}

void Network::register_client_receiver(Receiver receiver) {
  client_receiver_ = std::move(receiver);
}

void Network::add_rx_hook(int node, RxHook* hook) {
  SG_ASSERT(hook != nullptr);
  hooks_[slot_of(node)].push_back(hook);
}

void Network::schedule_delivery(int src_node, Sender& from,
                                const RpcPacket& pkt, Duration fault_delay) {
  const Duration base =
      src_node == pkt.dst_node ? model_.same_node : model_.cross_node;
  const double scale =
      from.rng.uniform(1.0 - model_.jitter, 1.0 + model_.jitter);
  Duration latency = base * scale;
  if (latency < Duration::zero()) latency = Duration::zero();
  latency += fault_delay;
  // Canonical rank: (source node, per-source sequence). Each source's
  // sequence follows its own local send order; same-nanosecond deliveries
  // tie-break on it instead of on insertion order.
  const std::uint64_t rank =
      (static_cast<std::uint64_t>(src_node + 2) << 40) | from.seq++;
  auto delivery = [this, pkt]() { deliver(pkt); };
  // One of these per packet: a 64-byte packet keeps the closure at 72
  // bytes, inside its event slot.
  static_assert(sizeof(RpcPacket) == 64);
  sim_.schedule_at_ranked(sim_.now() + latency, rank, std::move(delivery));
}

void Network::send(int src_node, const RpcPacket& pkt_in) {
  Sender& from = senders_[slot_of(src_node)];
  slot_of(pkt_in.dst_node);  // rejects an unknown destination node
  // Packets are value types: the copy in the delivery closure is the wire
  // copy. While tracing, its send time is stamped on it so delivery can
  // record the transit as a net-hop span.
  RpcPacket pkt = pkt_in;
  if (sim_.trace_sink() != nullptr) pkt.sent_at = sim_.now();
  const PacketFate fate =
      fault_hook_ != nullptr ? fault_hook_->on_send(pkt) : PacketFate{};
  // Lost on the wire: neither rx hooks nor the receiver ever see it. Drops
  // and duplicates are counted where they are decided, in the fault hook
  // (FaultInjector's FaultStats).
  if (fate.drop) return;
  schedule_delivery(src_node, from, pkt, fate.extra_delay);
  if (fate.duplicate) {
    // The duplicate travels independently: its own latency draw (plus the
    // same fault delay), its own delivery, its own trip through the rx hook
    // chain.
    schedule_delivery(src_node, from, pkt, fate.extra_delay);
  }
}

void Network::deliver(const RpcPacket& pkt) {
  ++packets_delivered_;
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
  // Receive-side hook chain: the netif_receive_skb attachment point. Hooks
  // see the packet before the destination container does. send() checked
  // the destination node.
  for (RxHook* hook : hooks_[static_cast<std::size_t>(pkt.dst_node + 1)]) {
    hook->on_packet(pkt);
  }
  if (pkt.dst_container == kClientEndpoint) {
    SG_ASSERT_MSG(client_receiver_, "no client receiver registered");
    client_receiver_(pkt);
    return;
  }
  const auto id = static_cast<std::size_t>(pkt.dst_container);
  SG_ASSERT_MSG(pkt.dst_container >= 0 && id < receivers_.size() &&
                    receivers_[id],
                "packet to unregistered container");
  receivers_[id](pkt);
}

}  // namespace sg
