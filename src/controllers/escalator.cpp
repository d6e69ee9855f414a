#include "controllers/escalator.hpp"

#include <algorithm>
#include <map>
#include <vector>

namespace sg {

Escalator::Escalator(ControllerEnv env, Options options)
    : env_(std::move(env)), options_(options) {}

void Escalator::start() {
  start_decision_loop(*env_.sim, options_.interval, [this] { tick(); });
}

double Escalator::exec_signal(const MetricsSnapshot& snap) const {
  // Design Feature #2 decouples execution time from connection waiting;
  // with the ablation flag off we regress to Parties' total execTime.
  return options_.use_new_metrics ? snap.avg_exec_metric_ns
                                  : snap.avg_exec_time_ns;
}

void Escalator::tick() {
  ++tick_count_;
  // Ordered maps (determinism rule D1/D3): scores feed the sorted candidate
  // list and exec_ratio is FP state consulted across the downscale walk —
  // neither may depend on hash order.
  std::map<int, int> scores;
  std::map<int, double> exec_ratio;

  // --- scoring pass (paper §IV-B's three checks) ---
  for (Container* c : env_.node->containers()) {
    const int id = c->id();
    busy_.window_busy_cores(*env_.sim, c);  // keep revocation guard fresh
    const auto snap = env_.bus->latest(id);
    if (!snap || !snap->valid()) continue;

    // Feed the online sensitivity profile with (allocation, execMetric),
    // normalized to base frequency so FirstResponder boosts do not corrupt
    // the per-core-count cells.
    if (options_.use_sensitivity) {
      const double speed = kDvfs.speed(c->frequency());
      sens_.observe(id, c->cores(), snap->avg_exec_metric_ns * speed);
    }

    const double limit = env_.targets.of(id).expected_exec_metric_ns;
    const double ratio = limit > 0.0 ? exec_signal(*snap) / limit : 0.0;
    exec_ratio[id] = ratio;

    // Check 1: upscale hint received from upstream (Table II row 1).
    if (options_.use_new_metrics && snap->upscale_hint_received) {
      scores[id] += 1;
    }

    // Check 2: queueBuildup violation -> downstream candidates + stamp.
    if (options_.use_new_metrics &&
        snap->queue_buildup > options_.queue_threshold) {
      const auto dit = env_.topology.downstream.find(id);
      if (dit != env_.topology.downstream.end()) {
        for (int d : dit->second) {
          // Local downstream containers are scored directly; remote ones
          // hear about it via the pkt.upscale stamp below.
          if (env_.cluster->container(d).node() == env_.node->id()) {
            scores[d] += 1;
          }
        }
      }
      act_.set_upscale_stamp(*c, kHintDepth);
    } else if (options_.use_new_metrics) {
      act_.set_upscale_stamp(*c, 0);
    }

    // Check 3: execMetric violation -> the container itself.
    if (ratio > options_.exec_threshold) {
      scores[id] += 1;
    }
  }
  last_scores_ = scores;

  // --- upscale pass: score desc, then sensitivity desc, one step each ---
  struct Candidate {
    Container* container;
    int score;
    double sens;
  };
  std::vector<Candidate> candidates;
  for (Container* c : env_.node->containers()) {
    const auto it = scores.find(c->id());
    if (it == scores.end() || it->second <= 0) continue;
    const double s =
        options_.use_sensitivity
            ? sens_.sensitivity_or(c->id(), c->cores(), kUnknownSensitivity)
            : 0.0;
    candidates.push_back({c, it->second, s});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.sens > b.sens;
            });
  for (const Candidate& cand : candidates) {
    Container& c = *cand.container;
    const int granted = act_.grant(c, kCoreStep);
    if (granted == 0) {
      act_.set_frequency(c, c.frequency() + kFreqStepLevels * kDvfs.step_mhz);
    } else if (c.frequency() > kDvfs.min_mhz) {
      // Swap FirstResponder's stopgap frequency boost for the cores just
      // granted: sustained load is served by cores (cheap), the boost was
      // only buying time until this slower path caught up (shFreq/shCores
      // synchronization in paper Fig. 7). Stepping down gradually (rather
      // than resetting) avoids oscillating with the fast path while the
      // backlog is still draining.
      act_.set_frequency(c, c.frequency() - kFreqStepLevels * kDvfs.step_mhz);
    }
  }

  // --- downscale pass ---
  // Paper §IV-B ordering: deallocate first from score-0 containers (Parties'
  // slack rule); ONLY when every container is an upscaling candidate does
  // sensitivity-based revocation kick in — freeing cores from insensitive
  // violators so sensitive ones can take them (Fig. 14's mid-surge
  // revocations).
  bool any_zero_score = false;
  for (Container* c : env_.node->containers()) {
    if (exec_ratio.count(c->id()) &&
        (!scores.count(c->id()) || scores[c->id()] <= 0)) {
      any_zero_score = true;
      break;
    }
  }
  for (Container* c : env_.node->containers()) {
    const int id = c->id();
    const auto rit = exec_ratio.find(id);
    if (rit == exec_ratio.end()) continue;
    const bool is_candidate = scores.count(id) && scores[id] > 0;

    if (!is_candidate) {
      // Frequency steps back toward the floor first.
      const bool boosted = c->frequency() > kDvfs.min_mhz;
      if (boosted) {
        act_.set_frequency(*c,
                           c->frequency() - kFreqStepLevels * kDvfs.step_mhz);
      }
      // Parties' slack rule on score-0 containers. Two guards: (a) a
      // container still running above base frequency owes its low execution
      // time to the boost, not to spare cores; (b) latency slack can be
      // downstream speed in disguise (exec includes downstream time), so a
      // core is only taken when the container's measured CPU usage fits in
      // the smaller allocation.
      if (!boosted && rit->second < kDownscaleThreshold) {
        if (++slack_streak_[id] >= kDownscaleHold &&
            busy_.safe_to_revoke(c, kCoreStep)) {
          act_.revoke(*c, kCoreStep, /*floor=*/1);
          slack_streak_[id] = 0;
        }
      } else {
        slack_streak_[id] = 0;
      }
    } else {
      slack_streak_[id] = 0;
    }

    // Sensitivity-based revocation (Design Feature #3): when there is no
    // score-0 container to reclaim from, periodically take a core back from
    // containers whose top core buys < 2% — insensitive containers must not
    // hog cores even while "violating" (Fig. 6 right, Fig. 14's mid-surge
    // revocations).
    if (options_.use_sensitivity && !any_zero_score &&
        tick_count_ % kSensRevokePeriodTicks == 0 &&
        sens_.revocation_candidate(id, c->cores(), kSensRevokeThreshold) &&
        busy_.safe_to_revoke(c, kCoreStep, /*util_limit=*/0.9)) {
      act_.revoke(*c, kCoreStep, /*floor=*/1);
    }
  }
}

}  // namespace sg
