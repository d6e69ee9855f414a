// Controller interface.
//
// A Controller instance manages resources for ONE node (the paper's
// decentralization: Fig. 1 shows one SurgeGuard per node, relying only on
// local state). The experiment harness creates one instance per node and
// calls start() once; the controller then drives itself via periodic events.
//
// A controller only decides. It carries out every resource action through
// its Actuator, which also writes the action to the decision audit.
#pragma once

#include <map>
#include <vector>

#include "app/application.hpp"
#include "cluster/cluster.hpp"
#include "controllers/targets.hpp"
#include "metrics/metrics_bus.hpp"
#include "net/network.hpp"
#include "trace/trace.hpp"

namespace sg {

/// Everything a per-node controller is allowed to touch: its own node, its
/// own node's metrics bus, the (shared) application runtime knobs, and the
/// static task-graph topology. Nothing here grants visibility into other
/// nodes' metrics or pools.
struct ControllerEnv {
  Simulator* sim = nullptr;
  Cluster* cluster = nullptr;   // for container lookup by id only
  Node* node = nullptr;
  MetricsBus* bus = nullptr;
  Application* app = nullptr;
  AppTopology topology;
  TargetMap targets;
};

class Controller {
 public:
  virtual ~Controller() = default;

  /// Arms the controller's periodic decision loop. Called once, before the
  /// load generator starts.
  virtual void start() = 0;
};

/// Carries out a controller's resource actions and records each one that
/// took effect in the decision audit (sg::trace): a grant or revoke of more
/// than 0 cores, a frequency that changed (a boost or a lower, by
/// direction), an upscale stamp of depth above 0. It is the only writer of
/// DecisionEvents, so every controller is observed the same way.
class Actuator {
 public:
  /// `source` names the controller in the audit; a static string.
  Actuator(const ControllerEnv& env, const char* source)
      : sim_(env.sim), cluster_(env.cluster), app_(env.app), source_(source) {}
  /// A cluster-wide controller's actuator (no upscale stamps).
  Actuator(Simulator& sim, Cluster& cluster, const char* source)
      : sim_(&sim), cluster_(&cluster), app_(nullptr), source_(source) {}

  /// Grants up to `cores` from c's node pool; returns how many it granted.
  int grant(Container& c, int cores) {
    const int granted = cluster_->node(c.node()).grant(&c, cores);
    if (granted > 0) record(DecisionKind::kCoreGrant, c, granted);
    return granted;
  }

  /// Revokes up to `cores` from c, never below `floor`; returns how many it
  /// revoked.
  int revoke(Container& c, int cores, int floor = 1) {
    const int revoked = cluster_->node(c.node()).revoke(&c, cores, floor);
    if (revoked > 0) record(DecisionKind::kCoreRevoke, c, revoked);
    return revoked;
  }

  /// Sets c's frequency (quantized and clamped by the container).
  void set_frequency(Container& c, FreqMhz mhz) {
    const FreqMhz was = c.frequency();
    c.set_frequency(mhz);
    if (c.frequency() == was) return;
    record(c.frequency() > was ? DecisionKind::kFreqBoost
                               : DecisionKind::kFreqLower,
           c, c.frequency());
  }

  /// Sets the pkt.upscale depth c stamps on its outgoing RPCs (0 stops it).
  void set_upscale_stamp(Container& c, int depth) {
    app_->set_upscale_stamp(c.id(), depth);
    if (depth > 0) record(DecisionKind::kUpscaleStamp, c, depth);
  }

  /// A container's core set-point (centralized allocators).
  struct SetPoint {
    int container;
    int cores;
  };

  /// Moves every container to its set-point, shrinks first so the grows can
  /// take the freed cores, and records each container's resulting cores,
  /// changed or not.
  void set_cores(const std::vector<SetPoint>& set_points) {
    for (const SetPoint& p : set_points) {
      Container& c = cluster_->container(p.container);
      if (p.cores < c.cores()) {
        cluster_->node(c.node()).revoke(&c, c.cores() - p.cores, p.cores);
      }
    }
    for (const SetPoint& p : set_points) {
      Container& c = cluster_->container(p.container);
      if (p.cores > c.cores()) {
        cluster_->node(c.node()).grant(&c, p.cores - c.cores());
      }
      record(DecisionKind::kAllocSet, c, c.cores());
    }
  }

 private:
  void record(DecisionKind kind, const Container& c, int amount) {
    if (TraceSink* sink = sim_->trace_sink()) {
      sink->add_decision(
          {sim_->now(), kind, source_, c.node(), c.id(), amount});
    }
  }

  Simulator* sim_;
  Cluster* cluster_;
  Application* app_;
  const char* source_;
};

/// Arms a controller's decision loop: `tick` runs every `interval` from
/// t = interval as a kController tick, so a `stall` fault window skips it.
template <class Tick>
void start_decision_loop(Simulator& sim, Duration interval, Tick tick) {
  sim.schedule_periodic(
      TimePoint::at(interval), interval,
      [tick = std::move(tick)]() mutable {
        tick();
        return true;
      },
      Simulator::TickClass::kController);
}

/// Window-average busy cores per container, measured between successive
/// calls. Controllers use this as a revocation guard: latency slack alone is
/// a trap (a container's latency includes downstream time, so boosting the
/// downstream makes a busy upstream container LOOK over-provisioned);
/// revoking a core that is measurably in use is never right.
class BusyWindowTracker {
 public:
  /// Average busy cores of `c` since the previous call for `c` (first call
  /// returns the current allocation: conservatively "fully busy").
  double window_busy_cores(Simulator& sim, Container* c) {
    c->sync();
    State& prev = last_[c->id()];
    const TimePoint now = sim.now();
    const double busy_now = c->busy_core_seconds();
    double avg = static_cast<double>(c->cores());
    if (prev.at > TimePoint::origin() && now > prev.at) {
      avg = (busy_now - prev.busy_core_seconds) / (now - prev.at).seconds();
    }
    prev.busy_core_seconds = busy_now;
    prev.at = now;
    prev.last_avg = avg;
    return avg;
  }

  /// True when taking `step` cores from `c` would leave it with enough
  /// capacity for its measured load at `util_limit` utilization. Uses the
  /// busy average computed by the LAST window_busy_cores() call for `c` —
  /// controllers feed the tracker once per tick for every container, then
  /// consult this during revocation decisions.
  bool safe_to_revoke(const Container* c, int step,
                      double util_limit = 0.8) const {
    const int remaining = c->cores() - step;
    if (remaining <= 0) return false;
    const auto it = last_.find(c->id());
    // Never observed: be conservative, assume fully busy.
    const double busy = it == last_.end() ? static_cast<double>(c->cores())
                                          : it->second.last_avg;
    return busy < util_limit * static_cast<double>(remaining);
  }

 private:
  struct State {
    double busy_core_seconds = 0.0;
    TimePoint at;
    double last_avg = 0.0;
  };
  // Ordered map (determinism rule D1): per-container FP state shared by
  // every controller's decision loop must stay order-stable.
  std::map<int, State> last_;
};

/// No-op controller: containers keep their initial allocation. Baseline for
/// tests and the detection-delay study.
class StaticController final : public Controller {
 public:
  void start() override {}
};

}  // namespace sg
