#include "core/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/stats.hpp"

namespace sg {

std::vector<RepStats> run_grid(const std::vector<GridCell>& cells,
                               const SweepOptions& options) {
  // Work item i is (cell, replication) items[i]; each writes only its own
  // pre-sized slot elements, so workers never touch the same slot.
  struct Item {
    std::size_t cell;
    std::size_t rep;
  };
  std::vector<Item> items;
  std::vector<RepStats> stats(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const std::size_t reps =
        static_cast<std::size_t>(std::max(1, cells[c].replications));
    for (std::size_t k = 0; k < reps; ++k) items.push_back({c, k});
    RepStats& s = stats[c];
    s.violation_volume.resize(reps);
    s.avg_cores.resize(reps);
    s.energy_joules.resize(reps);
    s.p98_ms.resize(reps);
  }

  unsigned threads = options.threads;
  if (threads == 0) {
    // sglint: allow(D5) pool sizing only; no simulator state is shared
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  threads = static_cast<unsigned>(
      std::min<std::size_t>(threads, std::max<std::size_t>(1, items.size())));

  // Work-stealing index over (cell, replication) items; each worker builds
  // and runs whole simulations locally (no shared mutable state between
  // items, CP.2).
  // sglint: allow(D5) work-stealing cursor over independent simulations
  std::atomic<std::size_t> next{0};
  auto worker = [&]() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= items.size()) return;
      const auto [c, k] = items[i];
      ExperimentConfig cfg = cells[c].config;
      cfg.seed = options.seed0 + k;
      ExperimentResult r = run_experiment(cfg, *cells[c].profile);
      RepStats& s = stats[c];
      s.violation_volume[k] = r.load.violation_volume_ms_s;
      s.avg_cores[k] = r.avg_cores;
      s.energy_joules[k] = r.energy_joules;
      s.p98_ms[k] = r.load.p98.millis();
      if (k == 0) s.first = std::move(r);
    }
  };

  if (threads <= 1) {
    worker();
  } else {
    // sglint: allow(D5) grid pool; each worker runs its own simulators
    std::vector<std::jthread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
  }

  for (std::size_t c = 0; c < cells.size(); ++c) {
    RepStats& s = stats[c];
    const std::size_t trim = cells[c].trim;
    s.vv = trimmed_mean(s.violation_volume, trim);
    s.cores = trimmed_mean(s.avg_cores, trim);
    s.energy = trimmed_mean(s.energy_joules, trim);
    s.p98 = trimmed_mean(s.p98_ms, trim);
  }
  return stats;
}

}  // namespace sg
