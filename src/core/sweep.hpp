// Replication and sweep protocol (paper artifact appendix):
// "For each spike pattern, we collect 17 data-points for each controller.
// While averaging ... we exclude the best and worst data-points ... and
// average the remaining 15."
//
// A figure is a grid of independent cells (spike pattern x controller x
// workload), each replicated with seeds seed0..seed0+n-1. run_grid flattens
// the grid into (cell, replication) work items and runs them on one
// work-stealing pool: each item builds and runs its own Simulator and writes
// into its own pre-sized slot of the result, so no lock is needed and
// nothing is shared between items but the read-only configs and profiles.
// Each run is bit-deterministic per seed and the slots fix the order, so the
// output is byte-identical for any thread count.
#pragma once

#include <cstddef>
#include <vector>

#include "core/experiment.hpp"

namespace sg {

struct RepStats {
  /// Raw per-replication values, in seed order.
  std::vector<double> violation_volume;
  std::vector<double> avg_cores;
  std::vector<double> energy_joules;
  std::vector<double> p98_ms;

  /// Trimmed means (drop best/worst), the paper's aggregation.
  double vv = 0.0;
  double cores = 0.0;
  double energy = 0.0;
  double p98 = 0.0;

  /// The full result of the seed0 replication (FR counters, max latency,
  /// each service's core and frequency timelines).
  ExperimentResult first;

  std::size_t replications() const { return violation_volume.size(); }
};

struct SweepOptions {
  /// Replications per configuration (paper: 17; benches default lower for
  /// wall-clock reasons — the protocol is identical).
  int replications = 5;
  /// Data points trimmed from each end before averaging (paper: 1).
  std::size_t trim = 1;
  /// Worker threads (0 = hardware concurrency).
  unsigned threads = 0;
  std::uint64_t seed0 = 1;
};

/// One grid cell: a configuration and the profile it runs against. The
/// profile must outlive the run_grid call.
struct GridCell {
  ExperimentConfig config;
  const ProfileResult* profile = nullptr;
};

/// Runs `options.replications` copies of every cell (seeds
/// seed0..seed0+n-1) on one pool and aggregates each cell with the
/// trimmed-mean protocol. Returns one RepStats per cell, in cell order.
std::vector<RepStats> run_grid(const std::vector<GridCell>& cells,
                               const SweepOptions& options);

/// The one-cell grid: replicates `config` against a shared profile.
RepStats run_replicated(const ExperimentConfig& config,
                        const ProfileResult& profile,
                        const SweepOptions& options);

}  // namespace sg
