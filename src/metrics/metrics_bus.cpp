#include "metrics/metrics_bus.hpp"

namespace sg {

void MetricsBus::publish(const MetricsSnapshot& snap) {
  latest_[snap.container] = snap;
}

std::optional<MetricsSnapshot> MetricsBus::latest(int container) const {
  const auto it = latest_.find(container);
  if (it == latest_.end()) return std::nullopt;
  return it->second;
}

}  // namespace sg
