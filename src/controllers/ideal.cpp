#include "controllers/ideal.hpp"

#include <cmath>

#include "common/assert.hpp"

namespace sg {

IdealOracleController::IdealOracleController(ControllerEnv env,
                                             Options options)
    : env_(std::move(env)), options_(options) {
  const AppSpec& spec = env_.app->spec();
  for (std::size_t i = 0; i < spec.services.size(); ++i) {
    demand_ns_.push_back(spec.services[i].work_ns_mean);
    initial_cores_.push_back(env_.app->service_container(static_cast<int>(i)).cores());
  }
}

int IdealOracleController::cores_for_rate(std::size_t service,
                                          double rate) const {
  const double demand_cores = rate * demand_ns_[service] / 1e9;
  return std::max(1, static_cast<int>(
                         std::ceil(demand_cores / kUtilTarget)));
}

void IdealOracleController::start() {
  // Pre-plan every surge within the horizon (the oracle knows the schedule).
  for (const SpikePattern::Window& w :
       options_.pattern.spikes_in(TimePoint::origin(),
                                  TimePoint::at(options_.horizon))) {
    env_.sim->schedule_at(w.start + options_.detection_delay,
                          [this, w]() { on_surge_detected(w); });
    const TimePoint drain_end =
        std::max(w.end, w.start + options_.detection_delay) +
        options_.drain_window;
    env_.sim->schedule_at(drain_end, [this, w]() { on_surge_over(w); });
  }
}

void IdealOracleController::on_surge_detected(
    const SpikePattern::Window& /*window*/) {
  const double spike_rate = options_.pattern.spike_rate_rps;
  const double delay_s = options_.detection_delay.seconds();
  const double drain_s = options_.drain_window.seconds();

  for (std::size_t i = 0; i < demand_ns_.size(); ++i) {
    Container& c = env_.app->service_container(static_cast<int>(i));
    if (c.node() != env_.node->id()) continue;

    // Steady need during the surge...
    int needed = cores_for_rate(i, spike_rate);

    // ...plus the backlog accumulated while undetected: requests that
    // arrived above the pre-surge capacity must be drained within
    // drain_window on top of the surge load.
    const double capacity_rps =
        static_cast<double>(initial_cores_[i]) * 1e9 / demand_ns_[i];
    const double backlog = std::max(0.0, spike_rate - capacity_rps) * delay_s;
    if (backlog > 0.0 && drain_s > 0.0) {
      const double drain_rate = backlog / drain_s;
      needed = cores_for_rate(i, spike_rate + drain_rate);
    }

    if (needed > c.cores()) act_.grant(c, needed - c.cores());
  }
}

void IdealOracleController::on_surge_over(const SpikePattern::Window&) {
  restore_initial();
}

void IdealOracleController::restore_initial() {
  for (std::size_t i = 0; i < initial_cores_.size(); ++i) {
    Container& c = env_.app->service_container(static_cast<int>(i));
    if (c.node() != env_.node->id()) continue;
    if (c.cores() > initial_cores_[i]) {
      act_.revoke(c, c.cores() - initial_cores_[i], initial_cores_[i]);
    }
  }
}

}  // namespace sg
