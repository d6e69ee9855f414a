// Per-container QoS parameters (paper §IV "SurgeGuard Parameters").
//
// Each container has two configurable targets, set by the user or obtained
// through online profiling:
//   expectedExecMetric    — expected per-request execution metric
//   expectedTimeFromStart — expected elapsed time since job start when a
//                           request reaches this container
// Following Dirigent and Nightcore (and the paper's artifact), the harness
// profiles at low load and sets targets to 2x the measured values.
#pragma once

#include <map>

#include "common/time.hpp"

namespace sg {

struct ContainerTargets {
  /// expectedExecMetric, in ns.
  double expected_exec_metric_ns = 0.0;
  /// expectedTimeFromStart, in ns (per-packet slack reference, eq. 4).
  Duration expected_time_from_start;
};

/// Targets per container id, plus application-level context derived in the
/// same profiling pass.
struct TargetMap {
  std::map<int, ContainerTargets> per_container;

  /// Expected end-to-end latency at the profiled operating point (used for
  /// FirstResponder's path-freeze window, ~2x of this).
  Duration expected_e2e_latency;

  /// Targets of `container`, or nullptr when it has none.
  const ContainerTargets* find(int container) const {
    const auto it = per_container.find(container);
    return it == per_container.end() ? nullptr : &it->second;
  }

  const ContainerTargets& of(int container) const {
    static const ContainerTargets kZero{};
    const ContainerTargets* t = find(container);
    return t == nullptr ? kZero : *t;
  }
};

}  // namespace sg
