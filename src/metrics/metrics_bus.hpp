// Per-node metrics exchange (shared files/pipes analog, paper Fig. 7 step 4).
//
// Container runtimes publish windowed MetricsSnapshots; the node's Escalator
// (or baseline controller) reads the latest snapshot per container at the
// start of each decision cycle. The bus is per node: controllers on one node
// never see another node's metrics (decentralization, Fig. 1).
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "metrics/container_metrics.hpp"

namespace sg {

class MetricsBus {
 public:
  /// Publishes/overwrites the latest snapshot for a container.
  void publish(const MetricsSnapshot& snap);

  /// Latest snapshot for a container (nullopt if never published).
  std::optional<MetricsSnapshot> latest(int container) const;

 private:
  // Ordered map: controllers and exporters enumerate published containers,
  // and that order must be identical across runs (determinism rule D1).
  std::map<int, MetricsSnapshot> latest_;
};

/// One MetricsBus per node. Container runtimes publish to their own node's
/// bus; per-node controllers read only their own.
class MetricsPlane {
 public:
  explicit MetricsPlane(std::size_t node_count) : buses_(node_count) {}

  MetricsBus& node_bus(int node) { return buses_.at(static_cast<std::size_t>(node)); }
  const MetricsBus& node_bus(int node) const {
    return buses_.at(static_cast<std::size_t>(node));
  }
  std::size_t node_count() const { return buses_.size(); }

 private:
  std::vector<MetricsBus> buses_;
};

}  // namespace sg
