// Controller interface.
//
// A Controller instance manages resources for ONE node (the paper's
// decentralization: Fig. 1 shows one SurgeGuard per node, relying only on
// local state). The experiment harness creates one instance per node and
// calls start() once; the controller then drives itself via periodic events.
#pragma once

#include <map>
#include <string>

#include "app/application.hpp"
#include "cluster/cluster.hpp"
#include "controllers/targets.hpp"
#include "metrics/metrics_bus.hpp"
#include "net/network.hpp"

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

  virtual std::string name() const = 0;

  /// Arms the controller's periodic decision loop. Called once, before the
  /// load generator starts.
  virtual void start() = 0;
};

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
  explicit StaticController(ControllerEnv env) : env_(std::move(env)) {}
  std::string name() const override { return "static"; }
  void start() override {}

 private:
  ControllerEnv env_;
};

}  // namespace sg
