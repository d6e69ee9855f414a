// The figure suite: every table and figure of the paper's evaluation.
//
// Each one is a registered Figure: `cells` lists the experiment cells it
// needs, `print` prints the paper's rows/series from their results
// (normalized to Parties where the paper normalizes), and with --csv every
// table it prints is also written to bench_out/<figure>_<k>.csv, cell for
// cell. One runner parses the flags, profiles each (workload, nodes,
// target_mult) once, runs the distinct cells of the selected figures
// through one run_grid pool (a cell two figures list runs once; cells and
// replications run on every core) and prints the figures in registry
// order. The output is byte-identical to a serial run of each figure alone.
//
// bench_<figure> runs one figure; bench_figs runs them all.
//
// Common flags:
//   --reps N     replications per cell (default 3; paper used 17)
//   --quick      1 replication, shortened measurement (smoke-test mode)
//   --full       17 replications, paper-length measurement windows
//   --csv        also write each printed table under bench_out/
//   --seed N     base seed
// A missing or malformed value, a non-positive --reps, a negative --seed or
// an unknown flag prints an error naming the flag and exits 2.
#pragma once

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/experiment.hpp"
#include "core/sweep.hpp"

namespace sg::bench {

/// The bench flags, parsed once by run_figures.
struct BenchArgs {
  int reps = 3;
  bool quick = false;
  bool csv = false;
  std::uint64_t seed = 1;
  Duration duration = 30 * kSecond;
  Duration warmup = 5 * kSecond;

  /// A cell replicated --reps times at seeds --seed.., trimmed by one data
  /// point at each end from 5 replications on.
  GridCell replicated(ExperimentConfig cfg) const {
    return {std::move(cfg), nullptr, reps, reps >= 5 ? 1u : 0u};
  }

  /// A cell run once at the base seed, untrimmed.
  static GridCell once(ExperimentConfig cfg) {
    return {std::move(cfg), nullptr, 1, 0};
  }

  void apply_timing(ExperimentConfig& cfg) const {
    cfg.duration = duration;
    cfg.warmup = warmup;
  }

};

/// The results of one figure's cells, in the order its `cells` listed them.
class Results {
 public:
  Results(const std::vector<RepStats>& all, std::vector<std::size_t> index)
      : all_(all), index_(std::move(index)) {}

  const RepStats& operator[](std::size_t i) const { return all_[index_[i]]; }
  std::size_t size() const { return index_.size(); }

 private:
  const std::vector<RepStats>& all_;
  std::vector<std::size_t> index_;
};

/// Prints a figure's tables to stdout; with --csv the k-th one (from 1) is
/// also written to bench_out/<figure>_<k>.csv.
class Tables {
 public:
  Tables(std::string figure, bool csv) : figure_(std::move(figure)), csv_(csv) {}

  void print(const TablePrinter& table);

 private:
  std::string figure_;
  bool csv_;
  int printed_ = 0;
};

struct Figure {
  /// The CSV stem; bench_<name> runs this figure alone.
  const char* name;
  std::vector<GridCell> (*cells)(const BenchArgs& args);
  void (*print)(const BenchArgs& args, const Results& results, Tables& out);
};

/// Parses the bench flags in argv and runs the figure named `only`, or every
/// figure when `only` is empty. Returns the process exit code.
int run_figures(int argc, char** argv, std::string_view only);

/// Short display label for a workload (the paper's abbreviations).
inline std::string short_name(const WorkloadInfo& w) {
  if (w.action == "chain") return "CHAIN";
  if (w.action == "readUserTimeline") return "read";
  if (w.action == "composePost") return "compose";
  if (w.action == "searchHotel") return "search";
  if (w.action == "recommendHotel") return "reco";
  return w.action;
}

/// v / base, or nullopt when the baseline is zero: such a ratio says
/// nothing, so it prints as "-" and stays out of averages.
inline std::optional<double> ratio_to(double v, double base) {
  if (base > 0.0) return v / base;
  return std::nullopt;
}

/// fmt_ratio of a ratio_to result; "-" when it is undefined.
inline std::string fmt_ratio_or_dash(std::optional<double> r) {
  return r ? fmt_ratio(*r) : "-";
}

/// "<what> 12.3% <less>": how far the mean of the defined ratios lies below
/// 1. Undefined ratios are left out; when some are, the rows the mean covers
/// follow ("(2 of 5 rows)"), and when all are, the percentage reads "-".
inline std::string avg_below_one(std::string_view what, std::string_view less,
                                 const std::vector<std::optional<double>>& rs) {
  std::vector<double> defined;
  for (const std::optional<double>& r : rs) {
    if (r) defined.push_back(*r);
  }
  std::string out(what);
  if (defined.empty()) return out + " - " + std::string(less);
  char pct[32];
  std::snprintf(pct, sizeof pct, " %.1f%% ", 100.0 * (1.0 - mean(defined)));
  out += pct;
  out += less;
  if (defined.size() < rs.size()) {
    out += " (" + std::to_string(defined.size()) + " of " +
           std::to_string(rs.size()) + " rows)";
  }
  return out;
}

// The figures, one per file under figures/.
Figure table1_controllers();
Figure table3_workloads();
Figure fig4_detection_delay();
Figure fig6_sensitivity();
Figure fig10_short_surges();
Figure fig11_long_surges();
Figure fig12_duration_sweep();
Figure fig13_node_scaling();
Figure fig14_alloc_timeline();
Figure fig15_breakdown();
Figure discussion_hybrid();
Figure ablation_membw();
Figure ablation_netlatency();
Figure ablation_thresholds();
Figure chaos_recovery();
Figure trace_breakdown();

}  // namespace sg::bench
