#include "controllers/centralized.hpp"

#include <algorithm>
#include <cmath>

namespace sg {

CentralizedMLController::CentralizedMLController(Simulator& sim,
                                                 Cluster& cluster,
                                                 MetricsPlane& metrics,
                                                 TargetMap targets)
    : sim_(sim),
      cluster_(cluster),
      metrics_(metrics),
      targets_(std::move(targets)) {}

void CentralizedMLController::start() {
  start_decision_loop(sim_, kInterval, [this] { tick(); });
}

void CentralizedMLController::tick() {
  // Metric snapshot "arrives at the inference server" now; the decision
  // lands kInferenceLatency later.
  std::vector<Actuator::SetPoint> decisions;
  for (std::size_t n = 0; n < cluster_.node_count(); ++n) {
    Node& node = cluster_.node(static_cast<NodeId>(n));
    const MetricsBus& bus = metrics_.node_bus(static_cast<int>(n));

    // Per-container desired size: measured CPU demand, inflated by the
    // latency overshoot the model is asked to eliminate.
    std::vector<std::pair<Container*, int>> desired;
    int total_desired = 0;
    for (Container* c : node.containers()) {
      const double demand = busy_.window_busy_cores(sim_, c);
      double inflation = 1.0;
      if (const auto snap = bus.latest(c->id()); snap && snap->valid()) {
        const double limit = targets_.of(c->id()).expected_exec_metric_ns;
        if (limit > 0.0) {
          inflation = std::clamp(snap->avg_exec_time_ns / limit, 1.0,
                                 kMaxInflation);
        }
      }
      const int want = std::max(
          1, static_cast<int>(std::ceil(demand * inflation /
                                        kUtilTarget)));
      desired.emplace_back(c, want);
      total_desired += want;
    }

    // Fit into the node (proportional scale-down when oversubscribed —
    // the model knows the global budget).
    const int budget = node.app_cores();
    double scale = 1.0;
    if (total_desired > budget) {
      scale = static_cast<double>(budget) / static_cast<double>(total_desired);
    }
    for (const auto& [c, want] : desired) {
      const int cores = std::max(
          1, static_cast<int>(std::floor(static_cast<double>(want) * scale)));
      decisions.push_back({c->id(), cores});
    }
  }
  sim_.schedule_after(kInferenceLatency,
                      [this, decisions = std::move(decisions)]() {
                        act_.set_cores(decisions);
                      });
}

}  // namespace sg
