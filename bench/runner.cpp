// The one runner every bench_* binary shares, and the figure registry.
#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <sys/stat.h>

#include "figure.hpp"

namespace sg::bench {
namespace {

/// The value after flag argv[i] (advancing i); exits 2 if there is none.
const char* value_of(int argc, char** argv, int& i) {
  if (i + 1 >= argc) {
    std::fprintf(stderr, "error: %s requires a value\n", argv[i]);
    std::exit(2);
  }
  return argv[++i];
}

/// Parses a decimal integer in [lo, hi]; anything else (signs, trailing
/// characters, overflow) prints an error naming the flag and exits 2.
std::uint64_t parse_count(const char* flag, const char* text, std::uint64_t lo,
                          std::uint64_t hi) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(text[0])) || *end != '\0' ||
      errno == ERANGE || v < lo || v > hi) {
    std::fprintf(stderr, "error: %s expects an integer >= %llu, got '%s'\n",
                 flag, static_cast<unsigned long long>(lo), text);
    std::exit(2);
  }
  return v;
}

/// Parses the common flags (see figure.hpp); a bad one exits 2 naming it.
BenchArgs parse_args(int argc, char** argv) {
  BenchArgs a;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (std::strcmp(flag, "--reps") == 0) {
      a.reps = static_cast<int>(
          parse_count(flag, value_of(argc, argv, i), 1, INT_MAX));
    } else if (std::strcmp(flag, "--quick") == 0) {
      a.quick = true;
      a.reps = 1;
      a.duration = 12 * kSecond;
      a.warmup = 3 * kSecond;
    } else if (std::strcmp(flag, "--full") == 0) {
      a.reps = 17;
      a.duration = 60 * kSecond;
      a.warmup = 30 * kSecond;
    } else if (std::strcmp(flag, "--csv") == 0) {
      a.csv = true;
    } else if (std::strcmp(flag, "--seed") == 0) {
      a.seed = parse_count(flag, value_of(argc, argv, i), 0, UINT64_MAX);
    } else if (std::strcmp(flag, "--help") == 0) {
      std::printf("flags: --reps N | --quick | --full | --csv | --seed N\n");
      std::exit(0);
    } else {
      std::fprintf(stderr, "error: unknown flag '%s' (see --help)\n", flag);
      std::exit(2);
    }
  }
  return a;
}

}  // namespace

void Tables::print(const TablePrinter& table) {
  table.print();
  if (!csv_) return;
  ::mkdir("bench_out", 0755);
  const std::string path =
      "bench_out/" + figure_ + "_" + std::to_string(++printed_) + ".csv";
  std::ofstream out(path, std::ios::binary);
  out << table.csv();
  if (!out) std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
}

int run_figures(int argc, char** argv, std::string_view only) {
  const BenchArgs args = parse_args(argc, argv);
  // Every figure, in the paper's order.
  const Figure registry[] = {
      table1_controllers(),   table3_workloads(),    fig4_detection_delay(),
      fig6_sensitivity(),     fig10_short_surges(),  fig11_long_surges(),
      fig12_duration_sweep(), fig13_node_scaling(),  fig14_alloc_timeline(),
      fig15_breakdown(),      discussion_hybrid(),   ablation_membw(),
      ablation_netlatency(),  ablation_thresholds(), chaos_recovery(),
      trace_breakdown()};
  std::vector<Figure> figures;
  for (const Figure& f : registry) {
    if (only.empty() || only == f.name) figures.push_back(f);
  }
  if (figures.empty()) {
    std::fprintf(stderr, "error: no figure named '%.*s'\n",
                 static_cast<int>(only.size()), only.data());
    return 2;
  }

  // A profile depends on the workload, the node count and the target
  // multiplier only; each distinct one is measured once. The deque keeps
  // the cells' profile pointers valid as it grows.
  struct ProfileKey {
    WorkloadInfo workload;
    int nodes;
    double target_mult;
    bool operator==(const ProfileKey&) const = default;
  };
  std::vector<ProfileKey> profile_keys;
  std::deque<ProfileResult> profiles;

  // Every figure's cells, deduplicated: index[f][i] is the distinct cell
  // that figure f's i-th cell maps to.
  std::vector<GridCell> distinct;
  std::vector<std::vector<std::size_t>> index(figures.size());
  std::size_t runs = 0;
  for (std::size_t f = 0; f < figures.size(); ++f) {
    for (GridCell& cell : figures[f].cells(args)) {
      const ExperimentConfig& c = cell.config;
      const ProfileKey key{c.workload, c.nodes, c.target_mult};
      const auto p = static_cast<std::size_t>(
          std::find(profile_keys.begin(), profile_keys.end(), key) -
          profile_keys.begin());
      if (p == profile_keys.size()) {
        profile_keys.push_back(key);
        profiles.push_back(
            profile_workload(c.workload, c.nodes, c.target_mult));
      }
      cell.profile = &profiles[p];
      runs += static_cast<std::size_t>(cell.replications);
      const auto d = std::find(distinct.begin(), distinct.end(), cell);
      index[f].push_back(static_cast<std::size_t>(d - distinct.begin()));
      if (d == distinct.end()) distinct.push_back(std::move(cell));
    }
  }

  const std::vector<RepStats> results =
      run_grid(distinct, SweepOptions{.threads = 0, .seed0 = args.seed});
  if (figures.size() > 1) {
    std::size_t distinct_runs = 0;
    for (const GridCell& cell : distinct) {
      distinct_runs += static_cast<std::size_t>(cell.replications);
    }
    std::fprintf(stderr, "%zu figures: %zu runs listed, %zu distinct\n",
                 figures.size(), runs, distinct_runs);
  }

  for (std::size_t f = 0; f < figures.size(); ++f) {
    Tables out(figures[f].name, args.csv);
    figures[f].print(args, Results(results, std::move(index[f])), out);
  }
  return 0;
}

}  // namespace sg::bench
