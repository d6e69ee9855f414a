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

std::vector<int> MetricsBus::known_containers() const {
  std::vector<int> out;
  out.reserve(latest_.size());
  for (const auto& [id, _] : latest_) out.push_back(id);
  return out;
}

bool MetricsBus::is_stale(int container, TimePoint now,
                          Duration staleness) const {
  const auto it = latest_.find(container);
  if (it == latest_.end()) return true;
  return now - it->second.window_end > staleness;
}

}  // namespace sg
