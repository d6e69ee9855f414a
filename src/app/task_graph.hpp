// Application task graphs (paper §II-A, Fig. 2).
//
// An application is a set of services plus the RPC flow between them; an
// incoming user request enters at service 0 and triggers RPCs along the
// graph. The catalog in workloads.{hpp,cpp} instantiates the paper's
// Table III entries on top of these types.
#pragma once

#include <string>
#include <vector>

#include "common/time.hpp"

namespace sg {

/// How a service's RPC framework maintains inter-service connections
/// (paper §II-A "Microservice Threading or Connection Models").
enum class ThreadingModel {
  /// New connection/thread per RPC: downstream concurrency is unbounded and
  /// a load surge propagates to every downstream service immediately.
  kConnectionPerRequest,
  /// Fixed-size pool of opened connections per edge: when the pool is
  /// exhausted, requests queue *implicitly* at the upstream service waiting
  /// for a free connection — the hidden dependency of Fig. 5(b).
  kFixedThreadPool,
};

/// RPC framework flavor (descriptive; Table III lists Thrift vs gRPC).
enum class RpcStyle { kThrift, kGrpc };

const char* to_string(ThreadingModel m);
const char* to_string(RpcStyle s);

/// How a service issues RPCs to its children.
enum class FanoutMode {
  kSequential,  // call children one after another (each holds one conn)
  kParallel,    // issue all child RPCs concurrently, join before replying
};

struct ServiceSpec {
  std::string name;

  /// Mean CPU work per request, done before calling children, in ns at one
  /// core at the DVFS reference frequency. It is the visit's only CPU phase.
  double work_ns_mean = 200'000.0;

  /// Log-normal sigma of the work distribution (0 = deterministic).
  double work_sigma = 0.25;

  /// Indices (into AppSpec::services) of downstream services.
  std::vector<int> children;

  FanoutMode fanout = FanoutMode::kSequential;

  /// True for services whose outgoing RPCs are NOT pooled even in a
  /// fixed-threadpool application — e.g. an HTTP frontend (nginx) whose
  /// worker-connection pool is effectively unbounded relative to the Thrift
  /// pools deeper in the graph. Such edges never produce conn-wait, so the
  /// first implicit queue forms at the first *pooled* tier, as in the
  /// paper's Fig. 14 (user-timeline-service).
  bool unpooled_children = false;

  bool operator==(const ServiceSpec&) const = default;
};

struct AppSpec {
  std::string name;

  /// services[0] is the entry point receiving client requests.
  std::vector<ServiceSpec> services;

  ThreadingModel threading = ThreadingModel::kFixedThreadPool;
  RpcStyle rpc = RpcStyle::kThrift;

  /// Per-edge connection-pool size for kFixedThreadPool. The paper's
  /// deployments use 512 (Table III) at testbed request rates; the
  /// simulator provisions pools with Little's law (eq. 1) via
  /// autosize_pools() so pool pressure is rate-appropriate.
  int threadpool_size = 512;

  /// Validates the graph: entry exists, children in range, acyclic
  /// (returns false and fills `error` otherwise).
  bool validate(std::string* error = nullptr) const;

  /// Longest service chain starting at the entry (Table III "Task-graph
  /// Depth" counts services, so a 5-service chain has depth 5).
  int depth() const;

  /// Estimated zero-load subtree latency of one service (own work +
  /// children round-trips).
  double estimate_subtree_latency_ns(int service, double net_hop_ns) const;

  /// Provisions per-edge pools with Little's law (paper eq. 1):
  ///   ThPoolSize = DesiredReqRate * DownstreamLatency
  /// at `rate_rps` with multiplicative `headroom`. No-op for
  /// connection-per-request apps. Returns the chosen size per edge indexed
  /// as [service][child_index].
  /// The default headroom covers the latency inflation between the
  /// zero-load RTT estimate and the loaded operating point (the paper sizes
  /// pools for the deployed request rate; pools must NOT bind at the base
  /// rate, only under surges). With the wrk2-style paced client, loaded RTT
  /// at the base operating point stays within ~1.1x of the zero-load
  /// estimate. The 2.2x default is chosen so that (a) a mitigated 1.75x
  /// surge fits through every pool (1.75 x 1.15 < 2.2 — pools are not the
  /// throughput ceiling once a controller has fixed the bottleneck), while
  /// (b) pools DO bind while a downstream bottleneck is unmitigated and its
  /// RTT is inflated severalfold — which is exactly when the paper's
  /// implicit-queue signal appears.
  std::vector<std::vector<int>> autosize_pools(double rate_rps,
                                               double net_hop_ns,
                                               double headroom = 2.2);

  /// Per-edge pool sizes chosen by autosize_pools (empty until called; the
  /// Application falls back to `threadpool_size` when empty).
  std::vector<std::vector<int>> pool_sizes;

  bool operator==(const AppSpec&) const = default;
};

}  // namespace sg
