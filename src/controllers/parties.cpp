#include "controllers/parties.hpp"

#include <algorithm>
#include <vector>

namespace sg {

void PartiesController::start() {
  start_decision_loop(*env_.sim, kInterval, [this] { tick(); });
}

double PartiesController::violation_ratio(const MetricsSnapshot& snap,
                                          int container) const {
  const double limit = env_.targets.of(container).expected_exec_metric_ns;
  if (limit <= 0.0) return 0.0;
  return snap.avg_exec_time_ns / limit;
}

void PartiesController::tick() {
  struct Candidate {
    Container* container;
    double ratio;
  };
  std::vector<Candidate> violators;
  std::vector<Candidate> calm;

  for (Container* c : env_.node->containers()) {
    busy_.window_busy_cores(*env_.sim, c);  // keep revocation guard fresh
    const auto snap = env_.bus->latest(c->id());
    if (!snap || !snap->valid()) continue;
    const double ratio = violation_ratio(*snap, c->id());
    if (ratio > kUpscaleThreshold) {
      violators.push_back({c, ratio});
      slack_streak_[c->id()] = 0;
    } else {
      // Core slack only counts at base frequency: a boosted container's low
      // latency is bought by the frequency knob, not by spare cores.
      if (ratio < kDownscaleThreshold &&
          c->frequency() <= kDvfs.min_mhz) {
        ++slack_streak_[c->id()];
      } else {
        slack_streak_[c->id()] = 0;
      }
      calm.push_back({c, ratio});
    }
  }

  // Upscale: Parties runs one FSM per latency-critical service, all
  // stepping concurrently — every violator gets one core step per interval,
  // worst ratio served first while the pool lasts. When the pool runs dry,
  // Parties reallocates: the worst violator takes a step from the container
  // with the most slack. Because the violation signal is total execTime,
  // the container holding the implicit threadpool queue has the worst ratio
  // every interval and keeps winning the scarce cores — the paper's Fig. 14
  // pathology.
  std::sort(violators.begin(), violators.end(),
            [](const Candidate& a, const Candidate& b) { return a.ratio > b.ratio; });
  bool stole_this_tick = false;
  for (const Candidate& v : violators) {
    const int granted = act_.grant(*v.container, kCoreStep);
    if (granted < kCoreStep && !stole_this_tick && !calm.empty()) {
      // Pool dry: take a step from the calmest container (lowest ratio)
      // whose measured CPU usage actually fits in the smaller allocation —
      // latency slack alone is not idleness (a leaf service with no
      // downstream hops shows low latency even at high utilization).
      const Candidate* donor = nullptr;
      for (const Candidate& c : calm) {
        // The floor caps what a revoke can actually take; judge safety on
        // that amount, not the nominal step.
        const int takeable = std::min(kCoreStep, c.container->cores() - 1);
        if (takeable <= 0 || !busy_.safe_to_revoke(c.container, takeable)) {
          continue;
        }
        if (donor == nullptr || c.ratio < donor->ratio) donor = &c;
      }
      if (donor != nullptr) {
        const int freed =
            act_.revoke(*donor->container, kCoreStep, /*floor=*/1);
        if (freed > 0) {
          act_.grant(*v.container, freed);
          stole_this_tick = true;
        }
      }
    }
  }
  // Frequency is a per-container knob (no shared pool), so Parties steps it
  // up on every violator each interval.
  for (const Candidate& v : violators) {
    act_.set_frequency(*v.container, v.container->frequency() +
                                         kFreqStepLevels * kDvfs.step_mhz);
  }

  // Downscale: frequency steps back toward the floor for every calm
  // container (cheap to reverse); at most one container returns a core step
  // per interval — the one with the longest sustained slack.
  Container* revoke_target = nullptr;
  int longest_streak = 0;
  for (const Candidate& c : calm) {
    if (c.container->frequency() > kDvfs.min_mhz) {
      act_.set_frequency(*c.container, c.container->frequency() -
                                           kFreqStepLevels * kDvfs.step_mhz);
    }
    const int streak = slack_streak_[c.container->id()];
    if (streak >= kDownscaleHold && streak > longest_streak) {
      longest_streak = streak;
      revoke_target = c.container;
    }
  }
  if (revoke_target != nullptr &&
      busy_.safe_to_revoke(revoke_target, kCoreStep)) {
    act_.revoke(*revoke_target, kCoreStep, /*floor=*/1);
    slack_streak_[revoke_target->id()] = 0;
  }
}

}  // namespace sg
