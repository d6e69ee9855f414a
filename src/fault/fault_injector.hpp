// FaultInjector: wires a FaultPlan into a live testbed.
//
// One injector per Simulator. arm() registers the wire-level fault hook on
// the Network, schedules node freeze/slowdown windows on the Cluster, and
// installs the controller-tick gate on the Simulator. All randomness (the
// per-packet drop/dup coin flips) comes from an RNG forked off the owning
// Simulator's RNG at construction, split into one stream per sender of the
// network, so the full fault timeline — which packets die, when nodes
// stall — is a pure function of (plan, seed).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "fault/fault_plan.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace sg {

/// Lifetime counters of everything the injector actually did (as opposed to
/// what the plan scheduled): the observable fault footprint of a run. Equal
/// counts across runs are a necessary condition for bit-reproducibility,
/// which is what the determinism golden test pins.
struct FaultStats {
  std::uint64_t packets_dropped = 0;
  std::uint64_t packets_duplicated = 0;
  std::uint64_t packets_delayed = 0;
  std::uint64_t node_slowdowns = 0;  // slowdown windows applied
  std::uint64_t node_freezes = 0;    // freeze windows applied
  std::uint64_t node_restarts = 0;   // freeze windows restored

  /// Compact "k=v" rendering, stable field order (golden-test friendly).
  std::string digest() const;
};

class FaultInjector final : public PacketFaultHook {
 public:
  FaultInjector(Simulator& sim, FaultPlan plan);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Attaches the injector to a testbed. Either pointer may be null when
  /// that layer is absent (e.g. a network-only unit test). Packet windows
  /// need `net`; node windows need `cluster`; controller-stall windows only
  /// need the simulator. Call once, before the simulation runs.
  ///
  /// The per-packet coin flips come from one RNG stream per sender of
  /// `net` (the client, then each node), so each sender's fault outcomes
  /// depend only on its own send sequence. The streams are pinned by the
  /// committed fingerprints. With both layers attached, the network and the
  /// cluster must agree on the node count.
  void arm(Network* net, Cluster* cluster);

  /// Observable fault footprint so far.
  FaultStats stats() const { return stats_; }

  /// PacketFaultHook: decides the fate of one packet at send time.
  PacketFate on_send(const RpcPacket& pkt) override;

 private:
  void schedule_node_windows(Cluster& cluster);

  Simulator& sim_;
  FaultPlan plan_;
  Rng rng_;  // forks the per-sender streams in arm()
  FaultStats stats_;
  bool armed_ = false;
  // Coin-flip streams by sender slot: 0 is the client, node n is n + 1.
  std::vector<Rng> streams_;
};

}  // namespace sg
