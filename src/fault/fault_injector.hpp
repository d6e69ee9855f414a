// FaultInjector: wires a FaultPlan into a live testbed.
//
// One injector per Simulator. arm() registers the wire-level fault hook on
// the Network, schedules node freeze/slowdown windows on the Cluster, and
// installs the controller-tick gate on the Simulator. All randomness (the
// per-packet drop/dup coin flips) comes from an RNG forked off the owning
// Simulator's RNG at construction, so the full fault timeline — which
// packets die, when nodes stall — is a pure function of (plan, seed).
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
  /// With a cluster attached, the per-packet coin flips switch to
  /// per-source-node RNG streams (plus one for the client), so each node's
  /// fault outcomes depend only on its own send sequence. The streams are
  /// pinned by the committed fingerprints. Without a cluster the historical
  /// single-stream behavior is kept.
  void arm(Network* net, Cluster* cluster);

  const FaultPlan& plan() const { return plan_; }

  /// Observable fault footprint so far.
  FaultStats stats() const { return stats_; }

  /// PacketFaultHook: decides the fate of one packet at send time.
  PacketFate on_send(const RpcPacket& pkt) override;

 private:
  void schedule_node_windows(Cluster& cluster);
  Rng& stream_for(int src_node);

  Simulator& sim_;
  FaultPlan plan_;
  Rng rng_;
  FaultStats stats_;
  bool armed_ = false;
  bool per_node_ = false;
  Rng client_stream_{0};  // reseeded in arm()
  std::vector<Rng> node_streams_;
};

}  // namespace sg
