// Shared plumbing for the figure/table benches.
//
// Every bench binary reproduces one table or figure of the paper: it runs
// the corresponding experiment grid, prints the same rows/series the paper
// reports (normalized to Parties where the paper normalizes), and with
// --csv writes raw data under bench_out/ for replotting. The grid drivers
// hand all their cells to one run_grid call, so cells and replications run
// on every core; the output is byte-identical to a serial run.
//
// Common flags:
//   --reps N     replications per cell (default 3; paper used 17)
//   --quick      1 replication, shortened measurement (smoke-test mode)
//   --full       17 replications, paper-length measurement windows
//   --csv        also write CSV files under bench_out/
//   --seed N     base seed
// A missing or malformed value, a non-positive --reps, a negative --seed or
// an unknown flag prints an error naming the flag and exits 2.
#pragma once

#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <sys/stat.h>

#include "common/csv.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/experiment.hpp"
#include "core/sweep.hpp"

namespace sg::bench {

struct BenchArgs {
  int reps = 3;
  bool quick = false;
  bool full = false;
  bool csv = false;
  std::uint64_t seed = 1;
  Duration duration = 30 * kSecond;
  Duration warmup = 5 * kSecond;

  static BenchArgs parse(int argc, char** argv) {
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
        a.full = true;
        a.reps = 17;
        a.duration = 60 * kSecond;
        a.warmup = 30 * kSecond;
      } else if (std::strcmp(flag, "--csv") == 0) {
        a.csv = true;
      } else if (std::strcmp(flag, "--seed") == 0) {
        a.seed = parse_count(flag, value_of(argc, argv, i), 0, UINT64_MAX);
      } else if (std::strcmp(flag, "--help") == 0) {
        std::printf(
            "flags: --reps N | --quick | --full | --csv | --seed N\n");
        std::exit(0);
      } else {
        std::fprintf(stderr, "error: unknown flag '%s' (see --help)\n", flag);
        std::exit(2);
      }
    }
    return a;
  }

  SweepOptions sweep() const {
    SweepOptions s;
    s.replications = reps;
    s.trim = reps >= 5 ? 1 : 0;
    s.threads = 0;  // every core; output is identical for any thread count
    s.seed0 = seed;
    return s;
  }

  /// One replication per cell at the base seed, untrimmed.
  SweepOptions one_run() const {
    SweepOptions s = sweep();
    s.replications = 1;
    s.trim = 0;
    return s;
  }

  void apply_timing(ExperimentConfig& cfg) const {
    cfg.duration = duration;
    cfg.warmup = warmup;
  }

 private:
  /// The value after flag argv[i] (advancing i); exits 2 if there is none.
  static const char* value_of(int argc, char** argv, int& i) {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "error: %s requires a value\n", argv[i]);
      std::exit(2);
    }
    return argv[++i];
  }

  /// Parses a decimal integer in [lo, hi]; anything else (signs, trailing
  /// characters, overflow) prints an error naming the flag and exits 2.
  static std::uint64_t parse_count(const char* flag, const char* text,
                                   std::uint64_t lo, std::uint64_t hi) {
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
};

/// Opens bench_out/<name>.csv (creating the directory), or returns nullptr
/// when --csv was not passed.
inline std::unique_ptr<CsvWriter> open_csv(const BenchArgs& args,
                                           const std::string& name) {
  if (!args.csv) return nullptr;
  ::mkdir("bench_out", 0755);
  auto w = std::make_unique<CsvWriter>("bench_out/" + name + ".csv");
  if (!w->ok()) {
    std::fprintf(stderr, "warning: cannot write bench_out/%s.csv\n",
                 name.c_str());
    return nullptr;
  }
  return w;
}

/// Short display label for a workload (the paper's abbreviations).
inline std::string short_name(const WorkloadInfo& w) {
  if (w.action == "chain") return "CHAIN";
  if (w.action == "readUserTimeline") return "read";
  if (w.action == "composePost") return "compose";
  if (w.action == "searchHotel") return "search";
  if (w.action == "recommendHotel") return "reco";
  return w.action;
}

}  // namespace sg::bench
