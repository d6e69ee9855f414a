// Parties controller (Chen et al., ASPLOS'19), reimplemented as the paper
// does (§V "Controllers Evaluated": "We implement the Parties controller in
// C++ following the code open-sourced by the authors").
//
// Parties is a per-container heuristic: every 500 ms it compares each
// latency-critical container's measured latency against its QoS limit and
// moves one unit of one resource at a time — upscaling violators, slowly
// reclaiming from containers with large slack. Crucially (paper §III-B), it
// treats containers in isolation: its latency signal is the container's
// total execution time, which *includes* time spent waiting for downstream
// connections, so with fixed-size threadpools it pours cores into the
// container holding the implicit queue (Fig. 14's user-timeline-service)
// instead of the root-cause downstream service.
#pragma once

#include <map>

#include "controllers/controller.hpp"

namespace sg {

class PartiesController final : public Controller {
 public:
  /// Decision interval (paper Table I: 500 ms).
  static constexpr Duration kInterval = 500 * kMillisecond;
  /// Violation when avg execTime > kUpscaleThreshold * QoS limit.
  static constexpr double kUpscaleThreshold = 1.0;
  /// Downscale when avg execTime < kDownscaleThreshold * limit ...
  static constexpr double kDownscaleThreshold = 0.5;
  /// ... for this many consecutive intervals.
  static constexpr int kDownscaleHold = 3;
  /// Logical cores moved per adjustment (2 = both hyperthreads of a
  /// physical core, per the paper's §V allocation policy).
  static constexpr int kCoreStep = 2;
  /// DVFS steps per frequency adjustment (Parties manages frequency as one
  /// of its knobs).
  static constexpr int kFreqStepLevels = 3;

  explicit PartiesController(ControllerEnv env) : env_(std::move(env)) {}

  void start() override;

  /// One decision cycle (exposed for tests).
  void tick();

 private:
  /// Parties' latency signal: container execution time vs its limit.
  double violation_ratio(const MetricsSnapshot& snap, int container) const;

  ControllerEnv env_;
  Actuator act_{env_, "parties"};
  BusyWindowTracker busy_;
  /// Consecutive low-latency intervals per container (downscale FSM).
  /// Ordered map (determinism rule D1): decision-loop state stays
  /// order-stable so future traversals cannot introduce hash-order runs.
  std::map<int, int> slack_streak_;
};

}  // namespace sg
