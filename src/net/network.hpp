// Network substrate: RPC delivery with latency plus receive-side hooks.
//
// This is the analog of the Linux networking stack in the paper's testbed.
// The crucial property reproduced here is the *hook point*: FirstResponder
// attaches at the earliest point of the receiver-side stack
// (`netif_receive_skb`), seeing every packet before it reaches the
// destination container. `Network` therefore runs a per-node hook chain at
// delivery time, before invoking the destination's receiver callback.
//
// Every delivery carries a canonical rank — (source node, per-source
// sequence) — that orders same-nanosecond deliveries. The rank is part of
// the pinned simulated output (simbench fingerprints, serial goldens):
// replacing it with FIFO order would reorder ties and change results.
#pragma once

#include <functional>
#include <map>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"

namespace sg {

/// Receive-side packet interceptor (the kernel-module attachment point).
/// Hooks may read packet fields and trigger side effects (frequency boosts)
/// but must not consume the packet; delivery always continues.
class RxHook {
 public:
  virtual ~RxHook() = default;
  virtual void on_packet(const RpcPacket& pkt) = 0;
};

/// Fate of one packet crossing the wire, decided by the fault hook at send
/// time. The default fate is clean delivery.
struct PacketFate {
  /// Packet is lost on the wire: never delivered, hooks never see it.
  bool drop = false;
  /// Packet is delivered twice (independent latency draws), modeling
  /// at-least-once link-layer retransmission. Each copy runs the rx hook
  /// chain and the receiver callback once.
  bool duplicate = false;
  /// Additional one-way delay for this packet (both copies when duplicated).
  Duration extra_delay;
};

/// Wire-level fault decision point (the sg::fault attachment). Consulted
/// once per send(); must be deterministic given the owning simulator's RNG
/// state so runs stay bit-reproducible per seed.
class PacketFaultHook {
 public:
  virtual ~PacketFaultHook() = default;
  virtual PacketFate on_send(const RpcPacket& pkt) = 0;
};

struct NetworkLatencyModel {
  Duration same_node = 15 * kMicrosecond;   // loopback RPC stack overhead
  Duration cross_node = 40 * kMicrosecond;  // ToR-switch hop
  /// Multiplicative jitter: latency is scaled by U[1-jitter, 1+jitter].
  double jitter = 0.1;
  /// Additional delay injected on every packet (used by experiments that
  /// model transient network slowdowns).
  Duration extra_delay;
};

class Network {
 public:
  using Receiver = std::function<void(const RpcPacket&)>;

  Network(Simulator& sim, NetworkLatencyModel model = {});

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Switches to per-source-node jitter streams, delivery sequences, and
  /// extra-delay slots for `node_count` nodes (plus the client endpoint).
  /// Every latency draw is then a function of the *sending node's* local
  /// history instead of a global draw order. Experiments always call this;
  /// the streams are pinned by the committed fingerprints, so collapsing
  /// them into one stream would change results. Must run before any
  /// traffic; directly-constructed networks that never call it keep the
  /// historical single-stream behavior.
  void configure_node_streams(int node_count);

  /// Registers the receiver for packets addressed to `container`. The
  /// application model registers one per service instance; the workload
  /// generator registers the client endpoint per node it drives.
  void register_receiver(int container, Receiver receiver);

  /// Registers a client-side receiver for response packets addressed to
  /// kClientEndpoint.
  void register_client_receiver(Receiver receiver);

  /// Attaches a receive-side hook on a node (FirstResponder's attach point).
  void add_rx_hook(int node, RxHook* hook);

  /// Sends a packet from `src_node`; it is delivered on pkt.dst_node after
  /// the modeled latency: hooks first, then the destination receiver.
  void send(int src_node, const RpcPacket& pkt);

  /// Changes the extra per-packet delay for every sender at once.
  void set_extra_delay(Duration d);

  /// Changes the extra per-packet delay for one sender (kClientNode for the
  /// client). Experiments schedule one toggle event per node; those events
  /// count towards the pinned event total.
  void set_extra_delay_for(int src_node, Duration d);

  /// Installs the wire-level fault hook (nullptr clears it). Non-owning;
  /// the hook must outlive the network. With no hook installed, send() takes
  /// the exact pre-fault path (bit-identical baseline runs).
  void set_fault_hook(PacketFaultHook* hook) { fault_hook_ = hook; }

  const NetworkLatencyModel& model() const { return model_; }

  std::uint64_t packets_delivered() const { return packets_delivered_; }
  std::uint64_t packets_dropped() const { return packets_dropped_; }
  std::uint64_t packets_duplicated() const { return packets_duplicated_; }

 private:
  std::size_t delay_slot(int src_node) const;
  Rng& stream_for(int src_node);
  std::uint64_t next_delivery_rank(int src_node);
  Duration sample_latency(int src_node, int dst_node);
  void schedule_delivery(int src_node, const RpcPacket& pkt, Duration latency);
  void deliver(const RpcPacket& pkt);

  Simulator& sim_;
  NetworkLatencyModel model_;
  Rng rng_;
  bool per_node_streams_ = false;
  Rng client_stream_{0};  // reseeded by configure_node_streams
  std::vector<Rng> node_streams_;
  // Per-source delivery sequence numbers; slot 0 is the client. Combined
  // with the source node id they form the canonical delivery rank.
  std::vector<std::uint64_t> delivery_seq_;
  // Extra per-packet delay by source (slot 0 = client; a single shared slot
  // until configure_node_streams).
  std::vector<Duration> extra_delay_;
  // Ordered maps (determinism rule D1): lookup-only today, but any future
  // traversal must not depend on hash order.
  std::map<int, Receiver> receivers_;
  Receiver client_receiver_;
  std::map<int, std::vector<RxHook*>> hooks_;
  PacketFaultHook* fault_hook_ = nullptr;
  std::uint64_t packets_delivered_ = 0;
  std::uint64_t packets_dropped_ = 0;
  std::uint64_t packets_duplicated_ = 0;
};

}  // namespace sg
