#include "controllers/caladan.hpp"

#include <algorithm>
#include <vector>

namespace sg {

void CaladanAlgo::start() {
  start_decision_loop(*env_.sim, kInterval, [this] { tick(); });
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
      act_.revoke(*c, kRevokeStep, /*floor=*/1);
    }
  }

  // Feed the longest queue first — Caladan's "add a core to the congested
  // kthread" policy mapped onto containers.
  std::sort(queued.begin(), queued.end(), [](const Entry& a, const Entry& b) {
    return a.queue_buildup > b.queue_buildup;
  });
  for (const Entry& e : queued) act_.grant(*e.container, kGrantStep);
}

}  // namespace sg
