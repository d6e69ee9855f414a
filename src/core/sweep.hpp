// Replication and sweep protocol (paper artifact appendix):
// "For each spike pattern, we collect 17 data-points for each controller.
// While averaging ... we exclude the best and worst data-points ... and
// average the remaining 15."
//
// A figure is a grid of independent cells (spike pattern x controller x
// workload), each replicated with seeds seed0..seed0+n-1 for its own n.
// run_grid flattens the grid into (cell, replication) work items and runs
// them on one work-stealing pool: each item builds and runs its own Simulator and writes
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
  /// Worker threads (0 = hardware concurrency).
  unsigned threads = 0;
  std::uint64_t seed0 = 1;
};

/// One grid cell: a configuration, the profile it runs against (which must
/// outlive the run_grid call), how many replications it takes (paper: 17;
/// benches default lower for wall-clock reasons — the protocol is
/// identical) and how many data points are trimmed from each end before
/// averaging (paper: 1). Two cells are the same runs exactly when they
/// compare equal.
struct GridCell {
  ExperimentConfig config;
  const ProfileResult* profile = nullptr;
  int replications = 1;
  std::size_t trim = 0;

  bool operator==(const GridCell&) const = default;
};

/// Runs `replications` copies of every cell (seeds seed0..seed0+n-1) on one
/// pool and aggregates each cell with the trimmed-mean protocol. Returns
/// one RepStats per cell, in cell order.
std::vector<RepStats> run_grid(const std::vector<GridCell>& cells,
                               const SweepOptions& options);

}  // namespace sg
