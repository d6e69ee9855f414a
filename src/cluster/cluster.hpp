// Cluster: the set of nodes plus container ownership.
//
// The paper's testbed is four bare-metal nodes; the Cluster owns every Node
// and Container and provides lookup, placement bookkeeping, and cluster-wide
// accounting. Controllers never receive the Cluster — each per-node
// controller instance sees only its own Node (decentralization, Fig. 1).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cluster/container.hpp"
#include "cluster/node.hpp"
#include "sim/simulator.hpp"

namespace sg {

class Cluster {
 public:
  explicit Cluster(Simulator& sim) : sim_(sim) {}

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Adds a node; returns its id (dense, starting at 0).
  NodeId add_node(int total_logical_cores = 64, int reserved_cores = 19);

  /// Creates a container on `node` with an initial core allocation drawn
  /// from that node's pool. Names must be unique cluster-wide.
  Container& add_container(const std::string& name, NodeId node,
                           int initial_cores);

  Node& node(NodeId id);
  const Node& node(NodeId id) const;
  std::size_t node_count() const { return nodes_.size(); }

  Container& container(ContainerId id);
  const Container& container(ContainerId id) const;
  std::size_t container_count() const { return containers_.size(); }

  const std::vector<std::unique_ptr<Container>>& containers() const {
    return containers_;
  }

  Simulator& sim() { return sim_; }

  /// Syncs all containers' accounting to the current time.
  void sync_all();

  /// Cluster-wide busy-core energy (joules), after sync.
  double total_energy_joules() const;

  /// Cluster-wide time-averaged allocated cores over [t0, t1].
  double average_allocated_cores(TimePoint t0, TimePoint t1) const;

 private:
  Simulator& sim_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Container>> containers_;
};

}  // namespace sg
