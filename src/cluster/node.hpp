// Node: one machine in the cluster.
//
// Mirrors the paper's per-node layout (§V): of 64 logical cores, 3 are
// reserved for SurgeGuard, 16 for network processing / OS tasks, and the
// rest are schedulable for application containers. The node keeps the
// core-allocation ledger: every logical core is either allocated to exactly
// one container or in the node's free pool (controllers draw from / return
// to the pool).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cluster/container.hpp"
#include "cluster/membw.hpp"
#include "common/time.hpp"

namespace sg {

class Node {
 public:
  struct Params {
    NodeId id = 0;
    int total_logical_cores = 64;
    int reserved_cores = 19;  // 3 controller + 16 network/OS (paper §V)
  };

  explicit Node(Params params);

  NodeId id() const { return params_.id; }

  /// Cores schedulable for application containers.
  int app_cores() const {
    return params_.total_logical_cores - params_.reserved_cores;
  }

  /// Cores currently in the free pool.
  int free_cores() const;

  /// Registers a container living on this node. Its initial allocation is
  /// debited from the pool (asserts on oversubscription).
  void attach(Container* c);

  const std::vector<Container*>& containers() const { return containers_; }

  /// Moves up to `k` cores from the free pool to the container; returns how
  /// many were actually granted. No-op (returns 0) while the node is frozen.
  int grant(Container* c, int k);

  /// Takes up to `k` cores from the container back into the pool, never
  /// dropping below `floor` cores; returns how many were revoked. No-op
  /// (returns 0) while the node is frozen.
  int revoke(Container* c, int k, int floor = 1);

  /// --- fault-injection levers (sg::fault) ---

  /// Scales the execution speed of every container on this node by `factor`
  /// in (0, 1] (1 restores full speed). Models a degraded machine: thermal
  /// throttling, a noisy neighbor VM, failing hardware.
  void set_slowdown(double factor);

  /// Freezes the node: every container's core allocation is remembered and
  /// zeroed (jobs stall; packets still arrive and queue), and grant/revoke
  /// become no-ops. Models a crashed/unresponsive machine awaiting restart.
  void freeze();

  /// Restarts a frozen node: restores the remembered per-container
  /// allocations exactly and re-enables grant/revoke.
  void restart();

  bool frozen() const { return frozen_; }

  /// Sum of container allocations (the ledger complement of free_cores()).
  int allocated_cores() const;

  /// Enables the shared memory-bandwidth interference domain on this node
  /// (paper §VII extension). Attaches every current and future container.
  void enable_membw(MemBwDomain::Params params);

  /// nullptr when contention modeling is off.
  MemBwDomain* membw() { return membw_.get(); }
  const MemBwDomain* membw() const { return membw_.get(); }

 private:
  Params params_;
  std::vector<Container*> containers_;
  std::unique_ptr<MemBwDomain> membw_;

  // Fault-injection state.
  double slowdown_factor_ = 1.0;
  bool frozen_ = false;
  std::vector<int> frozen_allocation_;  // index-parallel to containers_
};

}  // namespace sg
