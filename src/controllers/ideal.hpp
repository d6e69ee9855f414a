// Ideal oracle controller for the detection-delay study (paper Fig. 4).
//
// Fig. 4 isolates the cost of detection latency: an idealized controller
// that, `detection_delay` after a surge begins, instantly allocates exactly
// the cores needed to sustain the surge AND drain the backlog that piled up
// while undetected, then returns to the initial allocation once the surge
// is over and drained. Comparing violation volume and cores across
// detection delays (0.2ms / 0.5s / 1s) reproduces the figure's argument:
// slower detection costs super-linearly more violation volume and requires
// more cores, because queues build unmitigated before detection.
#pragma once

#include <vector>

#include "controllers/controller.hpp"
#include "workload/spike.hpp"

namespace sg {

class IdealOracleController final : public Controller {
 public:
  struct Options {
    /// The surge schedule the oracle is told about.
    SpikePattern pattern;
    /// Time from surge start to the oracle's reaction.
    Duration detection_delay = 200 * kMicrosecond;
    /// Window within which the oracle wants the backlog drained.
    Duration drain_window = 500 * kMillisecond;
    /// How long the sim runs (so the oracle can pre-plan every surge).
    Duration horizon = 60 * kSecond;
  };

  /// Target utilization the oracle provisions for during the surge.
  static constexpr double kUtilTarget = 0.75;

  IdealOracleController(ControllerEnv env, Options options);

  void start() override;

 private:
  void on_surge_detected(const SpikePattern::Window& w);
  void on_surge_over(const SpikePattern::Window& w);
  void restore_initial();

  /// Cores needed by service i to sustain `rate` at kUtilTarget.
  int cores_for_rate(std::size_t service, double rate) const;

  ControllerEnv env_;
  Actuator act_{env_, "ideal"};
  Options options_;
  std::vector<int> initial_cores_;
  std::vector<double> demand_ns_;  // per-request CPU ns per service
};

}  // namespace sg
