// Escalator: SurgeGuard's user-space controller (paper §IV-B).
//
// Escalator's contribution is *candidate identification*, layered on the
// Parties allocation algorithm:
//
//   score(c) += 1 for each failed check of (paper §IV-B):
//     (1) an upscale hint arrived on an incoming packet (pkt.upscale > 0)
//     (2) queueBuildup(c) > QUEUE_TH   -> candidates are c's DOWNSTREAM
//         containers (Table II row 2), and c starts stamping pkt.upscale on
//         outgoing RPCs so remote downstream containers hear about it
//     (3) execMetric(c) / expectedExecMetric(c) > EXEC_TH -> candidate is c
//
// Upscaling: higher scores first; ties broken by core sensitivity; one core
// step at a time (the Parties step policy). Downscaling: Parties' slack rule
// on score-0 containers first, then sensitivity-based revocation — take a
// core back whenever execAvg says the container's top core buys < 2%
// improvement (Design Feature #3).
//
// Feature flags reproduce the paper's Fig. 15 ablation: new metrics only,
// sensitivity only, or the full Escalator.
#pragma once

#include <map>

#include "controllers/controller.hpp"
#include "metrics/sensitivity.hpp"

namespace sg {

class Escalator final : public Controller {
 public:
  /// The knobs experiments vary: Fig. 15's ablation and
  /// bench_ablation_thresholds.
  struct Options {
    /// Decision interval (the slower, precise path; the paper leaves this
    /// unspecified — 100 ms sits between Parties' 500 ms and the metric
    /// publication interval).
    Duration interval = 100 * kMillisecond;

    /// QUEUE_TH: queueBuildup above this flags hidden-queue pressure.
    double queue_threshold = 1.30;

    /// EXEC_TH: execMetric / expectedExecMetric above this flags a true
    /// slowdown of the container itself.
    double exec_threshold = 1.0;

    /// --- ablation flags (Fig. 15) ---
    /// Use execMetric/queueBuildup/hints (Design Feature #2). When false,
    /// falls back to Parties' total-execution-time signal.
    bool use_new_metrics = true;
    /// Use sensitivity-aware allocation + revocation (Design Feature #3).
    bool use_sensitivity = true;

    bool operator==(const Options&) const = default;
  };

  /// pkt.upscale stamp depth (how many successive downstream containers
  /// an upstream violation may upscale).
  static constexpr int kHintDepth = 3;

  /// Logical cores per adjustment (2 = hyperthread pair, §V).
  static constexpr int kCoreStep = 2;

  /// Parties-style downscale rule for score-0 containers.
  static constexpr double kDownscaleThreshold = 0.5;
  static constexpr int kDownscaleHold = 3;

  /// Sensitivity-based revocation threshold (paper: sens < 0.02) and how
  /// often it runs, in ticks (paper: "periodically revoking").
  static constexpr double kSensRevokeThreshold = 0.02;
  static constexpr int kSensRevokePeriodTicks = 2;

  /// Treats unexplored sensitivity cells as this value so upscaling
  /// prefers exploring unknown allocations over known-useless ones.
  static constexpr double kUnknownSensitivity = 0.5;

  /// DVFS steps per frequency adjustment. Escalator also manages frequency
  /// (Fig. 7): boost when violating with an empty pool, step back toward
  /// the floor when calm.
  static constexpr int kFreqStepLevels = 5;

  Escalator(ControllerEnv env, Options options);
  Escalator(ControllerEnv env) : Escalator(std::move(env), Options()) {}

  void start() override;

  void tick();

  /// Scores computed on the last tick (exposed for tests / Fig. 14 traces).
  const std::map<int, int>& last_scores() const { return last_scores_; }

  const SensitivityTracker& sensitivity() const { return sens_; }

 private:
  double exec_signal(const MetricsSnapshot& snap) const;

  ControllerEnv env_;
  Actuator act_{env_, "escalator"};
  Options options_;
  SensitivityTracker sens_;
  BusyWindowTracker busy_;
  // Ordered maps: the decision loop walks these (directly or via exported
  // score snapshots), and decisions must replay identically per seed
  // (determinism rule D1).
  std::map<int, int> slack_streak_;
  std::map<int, int> last_scores_;
  long tick_count_ = 0;
};

}  // namespace sg
