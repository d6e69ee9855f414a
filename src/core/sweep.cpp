#include "core/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/stats.hpp"

namespace sg {

std::vector<RepStats> run_grid(const std::vector<GridCell>& cells,
                               const SweepOptions& options) {
  const std::size_t reps =
      static_cast<std::size_t>(std::max(1, options.replications));
  const std::size_t items = cells.size() * reps;

  // Pre-sized slots: item i = (cell i / reps, replication i % reps) writes
  // only its own elements, so workers never touch the same slot.
  std::vector<RepStats> stats(cells.size());
  for (RepStats& s : stats) {
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
      std::min<std::size_t>(threads, std::max<std::size_t>(1, items)));

  // Work-stealing index over (cell, replication) items; each worker builds
  // and runs whole simulations locally (no shared mutable state between
  // items, CP.2).
  // sglint: allow(D5) work-stealing cursor over independent simulations
  std::atomic<std::size_t> next{0};
  auto worker = [&]() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= items) return;
      const std::size_t c = i / reps;
      const std::size_t k = i % reps;
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

  for (RepStats& s : stats) {
    s.vv = trimmed_mean(s.violation_volume, options.trim);
    s.cores = trimmed_mean(s.avg_cores, options.trim);
    s.energy = trimmed_mean(s.energy_joules, options.trim);
    s.p98 = trimmed_mean(s.p98_ms, options.trim);
  }
  return stats;
}

RepStats run_replicated(const ExperimentConfig& config,
                        const ProfileResult& profile,
                        const SweepOptions& options) {
  return std::move(run_grid({{config, &profile}}, options).front());
}

}  // namespace sg
