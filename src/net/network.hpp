// Network substrate: RPC delivery with latency plus receive-side hooks.
//
// This is the analog of the Linux networking stack in the paper's testbed.
// The crucial property reproduced here is the *hook point*: FirstResponder
// attaches at the earliest point of the receiver-side stack
// (`netif_receive_skb`), seeing every packet before it reaches the
// destination container. `Network` therefore runs a per-node hook chain at
// delivery time, before invoking the destination's receiver callback.
//
// The network knows its node count from construction. Every sender — the
// client and each node — owns its jitter stream and delivery sequence, so a
// packet's latency depends only on its sender's own send history. Extra
// delay (network-latency surges) comes from the fault hook. Every delivery
// carries a canonical rank — (source node, per-source sequence) — that
// orders same-nanosecond deliveries. Streams and ranks are part of the
// pinned simulated output (simbench fingerprints, serial goldens): replacing
// them with one shared stream or with FIFO order would change results.
#pragma once

#include <cstdint>
#include <functional>
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
};

class Network {
 public:
  using Receiver = std::function<void(const RpcPacket&)>;

  /// A network of `node_count` nodes (ids 0..node_count-1) plus the client
  /// endpoint (kClientNode). The per-sender jitter streams are forked here,
  /// client first, then nodes in id order.
  Network(Simulator& sim, NetworkLatencyModel model = {}, int node_count = 1);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers the receiver for packets addressed to `container`. The
  /// application model registers one per service instance.
  void register_receiver(int container, Receiver receiver);

  /// Registers a client-side receiver for response packets addressed to
  /// kClientEndpoint.
  void register_client_receiver(Receiver receiver);

  /// Attaches a receive-side hook on a node (FirstResponder's attach point).
  void add_rx_hook(int node, RxHook* hook);

  /// Sends a packet from `src_node`; it is delivered on pkt.dst_node after
  /// the modeled latency: hooks first, then the destination receiver. Both
  /// nodes must be in [kClientNode, node_count()).
  void send(int src_node, const RpcPacket& pkt);

  /// Installs the wire-level fault hook (nullptr clears it). Non-owning;
  /// the hook must outlive the network. With no hook installed every packet
  /// gets the default (clean) PacketFate.
  void set_fault_hook(PacketFaultHook* hook) { fault_hook_ = hook; }

  const NetworkLatencyModel& model() const { return model_; }
  int node_count() const { return static_cast<int>(senders_.size()) - 1; }

  std::uint64_t packets_delivered() const { return packets_delivered_; }

 private:
  struct Sender {
    Rng rng;                // latency jitter draws
    std::uint64_t seq = 0;  // per-source delivery sequence
  };

  /// Index of `node` in senders_ and hooks_: 0 for the client, node + 1
  /// otherwise. Rejects ids outside [kClientNode, node_count()).
  std::size_t slot_of(int node) const;
  void schedule_delivery(int src_node, Sender& from, const RpcPacket& pkt,
                         Duration fault_delay);
  void deliver(const RpcPacket& pkt);

  Simulator& sim_;
  NetworkLatencyModel model_;
  std::vector<Sender> senders_;               // by slot
  std::vector<std::vector<RxHook*>> hooks_;   // by destination slot
  std::vector<Receiver> receivers_;           // by container id
  Receiver client_receiver_;
  PacketFaultHook* fault_hook_ = nullptr;
  std::uint64_t packets_delivered_ = 0;
};

}  // namespace sg
