// Workload catalog (paper §V, Table III).
//
// Five evaluated actions:
//   CHAIN                         5-deep chain microbenchmark, Thrift, pool
//   socialNetwork.readUserTimeline  depth 5, Thrift, fixed pool
//   socialNetwork.composePost       depth 8, Thrift, fixed pool
//   hotelReservation.searchHotel    depth 11, gRPC, connection-per-request
//   hotelReservation.recommendHotel depth 5,  gRPC, connection-per-request
//
// Task-graph shapes follow DeathStarBench's topology at the granularity the
// paper depends on (depth, threading model, presence of storage-tier leaf
// services with flat sensitivity curves). Service CPU costs are calibrated
// to the simulator so that, at the listed base rate with the listed initial
// allocation, the bottleneck services run at ~0.65 utilization — the
// artifact's "slightly below the knee of the load-latency curve" operating
// point.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "app/task_graph.hpp"

namespace sg {

struct WorkloadInfo {
  AppSpec spec;

  /// Calibrated steady-state request rate (the wrk2 `-rate` parameter).
  double base_rate_rps = 2000.0;

  /// Initial logical cores per service ("highest steady-state throughput"
  /// allocation, paper §V).
  std::vector<int> initial_cores;

  /// Workload family and action names.
  std::string family;
  std::string action;

  int total_initial_cores() const;

  bool operator==(const WorkloadInfo&) const = default;
};

/// CHAIN: five Thrift services, each doing a vector-accumulate-sized chunk
/// of arithmetic, fixed-size threadpools (paper §V "CHAIN Microbenchmark").
WorkloadInfo make_chain();

/// socialNetwork ReadUserTimeline (DeathStarBench), depth 5, Thrift, pool.
WorkloadInfo make_social_read_user_timeline();

/// socialNetwork ComposePost, depth 8, Thrift, pool.
WorkloadInfo make_social_compose_post();

/// hotelReservation searchHotel, depth 11, gRPC, connection-per-request.
WorkloadInfo make_hotel_search();

/// hotelReservation recommendHotel, depth 5, gRPC, connection-per-request.
WorkloadInfo make_hotel_recommend();

/// All five Table III rows, in the paper's order.
std::vector<WorkloadInfo> workload_catalog();

/// Lookup by "<family>.<action>", bare action or family name; nullopt when
/// no catalog workload goes by `name`.
std::optional<WorkloadInfo> workload_by_name(std::string_view name);

}  // namespace sg
