// Application: a deployed task graph processing end-to-end requests.
//
// This is the paper's modified-DeathStarBench layer: the container runtimes
// that (a) execute requests per the task graph and threading model,
// (b) compute the SurgeGuard per-request metrics and publish windowed
// averages to Escalator (Fig. 7 step 4), and (c) stamp the SurgeGuard
// metadata fields (startTime, upscale) on outgoing RPCs (Fig. 8).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "app/task_graph.hpp"
#include "app/threadpool.hpp"
#include "cluster/cluster.hpp"
#include "common/request_window.hpp"
#include "common/rng.hpp"
#include "common/slot_arena.hpp"
#include "metrics/container_metrics.hpp"
#include "metrics/metrics_bus.hpp"
#include "net/network.hpp"

namespace sg {

/// Container-id-level view of the task graph, used by controllers that must
/// find "downstream containers" (Table II, FirstResponder's same-node boost)
/// without any knowledge of the application internals.
struct AppTopology {
  /// Immediate downstream container ids per container id.
  std::map<int, std::vector<int>> downstream;
  /// Entry container id.
  int entry = 0;

  /// Downstream containers of `container` hosted on `node` (any depth).
  std::vector<int> downstream_on_node(int container, int node,
                                      const Cluster& cluster) const;
};

/// Placement and initial sizing of an AppSpec onto a cluster.
struct Deployment {
  /// Node hosting each service (index-parallel to AppSpec::services).
  std::vector<NodeId> node_of_service;
  /// Initial logical-core allocation per service.
  std::vector<int> initial_cores;

  /// All services on one node.
  static Deployment single_node(const AppSpec& spec, NodeId node,
                                int cores_per_service);
};

/// Timeout/retry policy for RPCs (paper testbeds run Thrift/gRPC, both of
/// which retransmit; without this, a single dropped packet strands a request
/// forever). Shared by the application's child RPCs and the load generator's
/// client requests. Timeouts back off exponentially:
/// attempt k waits timeout * backoff^k.
struct RpcRetryPolicy {
  bool enabled = false;
  /// First-attempt timeout. Must comfortably exceed the normal RPC round
  /// trip or healthy calls will spuriously retransmit.
  Duration timeout = 50 * kMillisecond;
  double backoff = 2.0;
  /// Retransmissions after the initial attempt; once exhausted the call is
  /// abandoned (child RPCs complete degraded, client requests count as
  /// dropped).
  int max_retries = 5;

  /// Timeout for attempt k (k=0 is the initial send).
  Duration timeout_for_attempt(int attempt) const;

  bool operator==(const RpcRetryPolicy&) const = default;
};

class Application {
 public:
  /// Reporting window for container-runtime metric publication.
  static constexpr Duration kMetricsInterval = 50 * kMillisecond;

  /// `retry` is the child-RPC retransmission policy. Disabled by default:
  /// the fault-free testbed never needs it, and the pre-fault event sequence
  /// must stay bit-identical.
  Application(Cluster& cluster, Network& network, MetricsPlane& metrics,
              AppSpec spec, const Deployment& deployment,
              RpcRetryPolicy retry = {});

  Application(const Application&) = delete;
  Application& operator=(const Application&) = delete;

  const AppSpec& spec() const { return spec_; }

  /// Container backing service index i.
  Container& service_container(int i) { return *services_[static_cast<std::size_t>(i)].container; }
  const Container& service_container(int i) const {
    return *services_[static_cast<std::size_t>(i)].container;
  }
  int service_count() const { return static_cast<int>(services_.size()); }

  ContainerId entry_container() const { return services_.front().container->id(); }
  NodeId entry_node() const { return services_.front().container->node(); }

  /// Starts publishing runtime metrics every kMetricsInterval. Call once
  /// after controllers are attached so their buses observe from t=0.
  void start_metric_publication();

  /// --- controller-facing runtime knobs ---

  /// Sets the upscale stamp for a container: while > 0, outgoing RPCs from
  /// it carry pkt.upscale = stamp (Escalator sets this on a queueBuildup
  /// violation; Table II row 2). Cleared by passing 0.
  void set_upscale_stamp(ContainerId container, int stamp);

  /// Lifetime profiling averages, used to derive expectedExecMetric /
  /// expectedTimeFromStart (paper §IV "SurgeGuard Parameters").
  const ContainerRuntimeMetrics& runtime_metrics(ContainerId container) const;

  /// Requests in flight inside the application (all services). Duplicate
  /// deliveries of a still-in-flight entry request (client retransmissions,
  /// packet-dup faults) are absorbed by the frontend's idempotency dedup
  /// and do not count; a duplicate arriving after completion re-executes.
  int in_flight() const { return static_cast<int>(entry_requests_.size()); }

  std::uint64_t requests_completed() const { return requests_completed_; }

  /// --- fault observability ---

  /// Child RPCs retransmitted after a timeout.
  std::uint64_t rpc_retries() const { return rpc_retries_; }
  /// Child RPCs abandoned after exhausting retries (visit completed
  /// degraded so the request still drains).
  std::uint64_t rpc_failures() const { return rpc_failures_; }
  /// Responses with no pending call: duplicates, or originals that raced a
  /// retransmission. Benign under faults; a bug if nonzero without them.
  std::uint64_t stray_responses() const { return stray_responses_; }

  /// Container-id adjacency of the task graph (for controllers).
  AppTopology topology() const;

 private:
  struct ServiceRuntime {
    const ServiceSpec* spec = nullptr;
    int index = 0;
    /// mu of the log-normal own-work draw (Rng::lognormal), solved once
    /// from the spec's mean and work_sigma.
    double work_mu = 0.0;
    Container* container = nullptr;
    ContainerRuntimeMetrics metrics;
    int upscale_stamp = 0;
    std::vector<ConnectionPool> child_pools;  // one per child edge
  };

  struct ReplyAddress {
    int container = kClientEndpoint;
    int node = kClientNode;
    std::uint64_t call_id = 0;
  };

  struct Visit {
    RequestId request_id = 0;
    int service = 0;
    TimePoint start_time;         // end-to-end job start (pkt.startTime)
    TimePoint arrive;             // also the own-work exec segment start
    Duration conn_wait;           // timeWaitingForFreeConn accumulator
    int arrived_upscale = 0;      // pkt.upscale on the incoming request
    ReplyAddress reply_to;
    int pending_children = 0;     // parallel fan-out join counter

    // --- tracing (sg::trace) ---
    double exec_share0 = 0.0;     // container share integral at segment open
  };

  // Visits and pending calls live in slot arenas; their handles are the
  // visit keys and the RPC call ids (DESIGN.md §5, "Request state").
  using VisitKey = SlotArena<Visit>::Handle;

  /// One in-flight child RPC awaiting its response (or a retransmission).
  struct PendingCall {
    VisitKey visit_key = 0;
    std::size_t child_idx = 0;
    int attempt = 0;               // 0 = initial send
    EventId timer = kInvalidEvent; // armed only when retry is enabled
  };

  std::size_t service_of_container(int container) const;
  void on_packet(const RpcPacket& pkt);
  void on_request(const RpcPacket& pkt);
  void on_response(const RpcPacket& pkt);
  void on_own_work_done(VisitKey key);
  void begin_child(VisitKey key, std::size_t child_idx);
  void on_conn_granted(std::size_t child_idx, ConnectionPool::Waiter w);
  void send_child_rpc(VisitKey key, std::size_t child_idx, int attempt = 0);
  void on_call_timeout(std::uint64_t call_id);
  void on_child_reply(VisitKey key, std::size_t child_idx);
  void reply(VisitKey key);
  int outgoing_upscale(const ServiceRuntime& sr, const Visit& v) const;

  Cluster& cluster_;
  Network& network_;
  MetricsPlane& metrics_plane_;
  AppSpec spec_;
  RpcRetryPolicy retry_;
  // Per-service work-draw streams, forked in service order from one fork of
  // the simulator's stream that the constructor takes. Each service's draw
  // sequence depends only on its own request order. The streams are pinned
  // by the committed fingerprints: drawing from one shared stream instead
  // would change results.
  std::vector<Rng> service_rngs_;

  std::vector<ServiceRuntime> services_;
  // Service index by container id; -1 for other applications' containers.
  std::vector<int> service_by_container_;

  SlotArena<Visit> visits_;
  SlotArena<PendingCall> calls_;  // handle = the RPC's call_id
  // Client request ids with an entry visit in flight (frontend idempotency):
  // presence is all the dedup reads.
  struct EntryInFlight {};
  RequestWindow<EntryInFlight> entry_requests_;

  std::uint64_t requests_completed_ = 0;
  std::uint64_t rpc_retries_ = 0;
  std::uint64_t rpc_failures_ = 0;
  std::uint64_t stray_responses_ = 0;
};

}  // namespace sg
