// RPC packet with SurgeGuard metadata fields.
//
// The paper (Fig. 8) extends every RPC with two fields:
//   * startTime — timestamp of the job's first packet, set at the first
//     container and propagated unchanged; FirstResponder computes per-packet
//     slack from it (eqs. 4-5).
//   * upscale — upscaling hint set at the container where a queueBuildup
//     violation is detected, propagated downstream and decremented by one at
//     each hop, so a bounded number of downstream containers upscale. Hints
//     piggyback on data packets, which is what keeps SurgeGuard decentralized
//     across nodes.
#pragma once

#include <cstdint>

#include "common/request_window.hpp"
#include "common/time.hpp"

namespace sg {

/// Sentinel "container id" for the external client / load generator.
inline constexpr int kClientEndpoint = -1;

/// Node id used for the external client machine (the paper's separate
/// 6-core client node): packets to/from it always pay cross-node latency.
inline constexpr int kClientNode = -1;

struct RpcPacket {
  RequestId request_id = 0;

  /// Correlates an RPC request with its response so the sender can resume
  /// the right in-flight call.
  std::uint64_t call_id = 0;

  /// Sending container id (kClientEndpoint for the workload generator).
  int src_container = kClientEndpoint;
  /// Node hosting the sender (responses are addressed back to it).
  int src_node = kClientNode;
  /// Receiving container id (kClientEndpoint when replying to the client).
  int dst_container = kClientEndpoint;

  /// Node hosting the destination (where the rx hook chain runs).
  int dst_node = 0;

  /// True for the response leg of an RPC.
  bool is_response = false;

  // --- SurgeGuard metadata (Fig. 8) ---

  /// End-to-end job start timestamp; propagated unchanged.
  TimePoint start_time;

  /// Downstream upscale hint; > 0 means "consider upscaling the receiver".
  int upscale = 0;

  // --- tracing (sg::trace) ---

  /// Send timestamp, stamped by the network only while a trace sink is
  /// installed; a delivery-time hop span [sent_at, now] captures the wire
  /// transit (including fault-injected extra delay).
  TimePoint sent_at;
};

}  // namespace sg
