#include "controllers/caladan.hpp"

#include <algorithm>
#include <vector>

#include "trace/trace.hpp"

namespace sg {

void CaladanAlgo::start() {
  env_.sim->schedule_periodic(
      TimePoint::at(kInterval), kInterval,
      [this]() {
        tick();
        return true;
      },
      Simulator::TickClass::kController);
}

void CaladanAlgo::tick() {
  struct Entry {
    Container* container;
    double queue_buildup;
  };
  std::vector<Entry> queued;

  for (Container* c : env_.node->containers()) {
    const auto snap = env_.bus->latest(c->id());
    const double busy = busy_.window_busy_cores(*env_.sim, c);
    if (!snap || !snap->valid()) continue;

    if (snap->queue_buildup > kQueueThreshold) {
      queued.push_back({c, snap->queue_buildup});
      continue;
    }
    // Reclaim: no queueing signal and the top core sat mostly idle over the
    // window (Caladan parks cores the moment they stop being needed).
    if (snap->queue_buildup < kIdleThreshold &&
        busy < static_cast<double>(c->cores()) - 1.0 - kIdleMargin) {
      const int revoked = env_.node->revoke(c, kRevokeStep, /*floor=*/1);
      if (revoked > 0) {
        env_.sim->audit(DecisionKind::kCoreRevoke, "caladan", env_.node->id(),
                        c->id(), revoked);
      }
    }
  }

  // Feed the longest queue first — Caladan's "add a core to the congested
  // kthread" policy mapped onto containers.
  std::sort(queued.begin(), queued.end(), [](const Entry& a, const Entry& b) {
    return a.queue_buildup > b.queue_buildup;
  });
  for (const Entry& e : queued) {
    const int granted = env_.node->grant(e.container, kGrantStep);
    if (granted > 0) {
      env_.sim->audit(DecisionKind::kCoreGrant, "caladan", env_.node->id(),
                      e.container->id(), granted);
    }
  }
}

}  // namespace sg
