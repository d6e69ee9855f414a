// Shared memory-bandwidth interference domain (paper §VII "Extending
// SurgeGuard to Other Resources").
//
// The paper notes SurgeGuard extends to resources beyond cores/frequency,
// naming memory bandwidth for bandwidth-constrained services (as Balm [22]
// partitions it). This optional per-node domain models the *contention*
// that makes such management worthwhile: every busy core consumes a slice
// of the node's memory bandwidth, and once aggregate demand exceeds supply,
// every container on the node slows down proportionally:
//
//   interference = min(1, node_bw / sum_over_containers(busy_cores * demand))
//
// Containers attached to a domain multiply their execution rate by this
// factor; the bench bench_ablation_membw shows how contention amplifies
// surge damage and how the controllers cope.
//
// The domain is event-driven: whenever a member container's busy-core count
// changes, it recomputes the factor and (only if it actually changed beyond
// a hysteresis epsilon) resynchronizes all members, so the processor-
// sharing virtual clocks stay exact.
#pragma once

#include <vector>

#include "common/time.hpp"

namespace sg {

class Container;

class MemBwDomain {
 public:
  struct Params {
    /// Total node memory bandwidth, in GB/s.
    double node_bw_gbs = 100.0;
    /// Bandwidth consumed per busy core, in GB/s (service-dependent values
    /// could be added per container; a node-wide average captures the
    /// contention effect the controllers see).
    double demand_per_busy_core_gbs = 6.0;

    bool operator==(const Params&) const = default;
  };

  /// Recompute threshold: factor changes smaller than this do not trigger
  /// a domain-wide resync (keeps event counts bounded).
  static constexpr double kHysteresis = 0.01;

  explicit MemBwDomain(Params params) : params_(params) {}

  MemBwDomain(const MemBwDomain&) = delete;
  MemBwDomain& operator=(const MemBwDomain&) = delete;

  /// Registers a member container (called by Container when attached).
  void add_member(Container* c) { members_.push_back(c); }

  /// Current slowdown factor in (0, 1]; 1 = no contention.
  double interference_factor() const { return factor_; }

  /// Total busy-core bandwidth demand right now (GB/s).
  double current_demand_gbs() const;

  /// Called by members whenever their busy-core count may have changed.
  /// Recomputes the factor and resynchronizes every member if it moved.
  void on_member_activity_changed();

 private:
  double compute_factor() const;

  Params params_;
  std::vector<Container*> members_;
  double factor_ = 1.0;
  bool resyncing_ = false;
};

}  // namespace sg
