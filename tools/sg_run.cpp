// sg_run: config-driven experiment runner (the paper artifact's workflow).
//
// Mirrors the artifact's order of operations (Artifact Appendix, A1):
//   1. deploy the application (here: build the simulated testbed)
//   2. read initial allocations + per-service parameters from a config file
//   3. initialize the controller
//   4. run the workload generator and the controller together
// and reports what the artifact's modified wrk2 reports (A2): a latency
// histogram and the violation volume.
//
// Usage:
//   sg_run <config-file> [flags]   (sg_run --help lists every flag)
// See sample_config at the repository root for all recognized keys.
//
// --fault-plan sets the config file's fault.plan key to a chaos schedule,
// e.g.
//   --fault-plan "drop:start_ms=6000,len_ms=2000,rate=0.1;slow:node=0,start_ms=9000,len_ms=500,factor=0.25"
// Faults are seed-deterministic: the same config + seed + plan reproduces
// the identical fault timeline (see EXPERIMENTS.md "Chaos experiments").
//
// --trace records per-request spans and controller decisions, prints a
// per-service latency breakdown plus the slowest requests' critical paths,
// and writes a Chrome trace_event JSON (open in Perfetto / chrome://tracing)
// to --trace-out. --trace, --trace-sample and --trace-out set the
// trace.enabled, trace.sample and trace.out keys, so a flag value is checked
// like the key's. Traces are byte-identical for a fixed seed. With tracing
// on, trace.out is opened before profiling, so an unwritable path exits 2 at
// once. parse_run_flags (src/core/run_flags.hpp) reads the flags.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "core/config_map.hpp"
#include "core/run_flags.hpp"
#include "trace/export.hpp"

using namespace sg;

namespace {

void print_usage(const char* argv0, std::FILE* out) {
  std::fprintf(out,
               "usage: %s <config-file> [flags]\n"
               "\n"
               "Runs one config-driven experiment (see sample_config for "
               "recognized keys).\n"
               "\n"
               "flags:\n"
               "  --histogram        print the wrk2-style latency "
               "percentile table\n"
               "  --quiet            suppress setup/progress output "
               "(results still print)\n"
               "  --fault-plan SPEC  override fault.plan with a chaos "
               "schedule (drop/dup/delay/slow/freeze/stall windows)\n"
               "  --trace            enable per-request tracing "
               "(overrides trace.enabled)\n"
               "  --trace-sample R   head-sampling rate in [0, 1] "
               "(overrides trace.sample)\n"
               "  --trace-out PATH   Chrome trace_event JSON output path "
               "(overrides trace.out; default trace.json)\n"
               "  --help             show this help and exit\n",
               argv0);
}

void print_histogram(const LoadGenResults& results) {
  std::printf("\nLatency distribution (wrk2-style):\n");
  TablePrinter table({"percentile", "latency"});
  table.add_row({"50.000%", format_time(results.p50)});
  table.add_row({"98.000%", format_time(results.p98)});
  table.add_row({"99.000%", format_time(results.p99)});
  table.add_row({"100.000%", format_time(results.max_latency)});
  table.print();
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      print_usage(argv[0], stdout);
      return 0;
    }
  }
  if (argc < 2) {
    print_usage(argv[0], stderr);
    return 2;
  }
  std::string error;
  const auto flags =
      parse_run_flags(std::vector<std::string>(argv + 2, argv + argc), &error);
  if (!flags) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }

  auto file_cfg = Config::load(argv[1], &error);
  if (!file_cfg) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  for (const auto& [key, value] : flags->overrides) file_cfg->set(key, value);
  auto cfg = experiment_from_config(*file_cfg, &error);
  if (!cfg) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  const std::string trace_path =
      file_cfg->get_string("trace.out", "trace.json");
  // Opened before the run, so an unwritable path fails in milliseconds
  // instead of after the whole experiment.
  std::ofstream trace_out;
  if (cfg->trace_enabled) {
    trace_out.open(trace_path, std::ios::binary);
    if (!trace_out) {
      std::fprintf(stderr, "error: cannot write trace.out '%s'\n",
                   trace_path.c_str());
      return 2;
    }
  }

  const bool quiet = flags->quiet;
  if (!quiet) {
    std::printf("workload:   %s @ %.0f rps (%s, %s)\n",
                cfg->workload.spec.name.c_str(), cfg->workload.base_rate_rps,
                to_string(cfg->workload.spec.rpc),
                to_string(cfg->workload.spec.threading));
    std::printf("controller: %s | nodes: %d | surge: %.2fx for %s every %s\n",
                to_string(cfg->controller), cfg->nodes, cfg->surge_mult,
                format_time(cfg->surge_len).c_str(),
                format_time(cfg->surge_period).c_str());
    if (!cfg->fault_plan.empty()) {
      std::printf("faults:     %s (retry %s)\n",
                  cfg->fault_plan.to_string().c_str(),
                  cfg->rpc_retry.enabled ? "on" : "off");
    }
  }

  // Profile at low load (paper §IV), then apply any user-pinned targets.
  ProfileResult profile =
      profile_workload(cfg->workload, cfg->nodes, cfg->target_mult);
  const int pinned =
      apply_target_overrides(*file_cfg, cfg->workload, &profile.targets);
  if (!quiet && pinned > 0) {
    std::printf("pinned targets for %d service(s) from the config file\n",
                pinned);
  }
  if (!quiet) {
    std::printf("low-load mean e2e: %s -> QoS %s\n",
                format_time(profile.low_load_mean_latency).c_str(),
                format_time(cfg->qos_mult * profile.low_load_mean_latency)
                    .c_str());
  }

  const ExperimentResult r = run_experiment(*cfg, profile);

  print_banner("results");
  TablePrinter table({"metric", "value"});
  table.add_row({"violation volume", fmt_double(r.load.violation_volume_ms_s, 3) + " ms*s"});
  table.add_row({"violation duration", fmt_double(100.0 * r.load.violation_duration_frac, 1) + "% of window"});
  table.add_row({"p50 latency", format_time(r.load.p50)});
  table.add_row({"p98 latency", format_time(r.load.p98)});
  table.add_row({"p99 latency", format_time(r.load.p99)});
  table.add_row({"throughput", fmt_double(r.load.throughput_rps, 0) + " rps"});
  table.add_row({"requests completed", std::to_string(r.load.completed)});
  table.add_row({"avg cores used", fmt_double(r.avg_cores, 2)});
  table.add_row({"energy", fmt_double(r.energy_joules, 1) + " J"});
  if (r.fr_packets > 0) {
    table.add_row({"fast-path packets inspected", std::to_string(r.fr_packets)});
    table.add_row({"fast-path violations", std::to_string(r.fr_violations)});
    table.add_row({"fast-path boosts", std::to_string(r.fr_boosts)});
  }
  if (!cfg->fault_plan.empty()) {
    table.add_row({"faults injected", r.faults.digest()});
    table.add_row({"client retries / dropped",
                   std::to_string(r.load.retries) + " / " +
                       std::to_string(r.load.dropped)});
    table.add_row({"app rpc retries / failures",
                   std::to_string(r.app_rpc_retries) + " / " +
                       std::to_string(r.app_rpc_failures)});
    table.add_row({"requests stranded", std::to_string(r.load.outstanding)});
    if (r.controller_ticks_stalled > 0) {
      table.add_row({"controller ticks stalled",
                     std::to_string(r.controller_ticks_stalled)});
    }
  }
  table.print();

  if (flags->histogram) print_histogram(r.load);

  if (r.trace) {
    const TraceReport& tr = *r.trace;
    print_banner("trace");
    TablePrinter summary({"metric", "value"});
    summary.add_row({"requests recorded",
                     std::to_string(tr.stats.requests_recorded)});
    summary.add_row({"traces kept", std::to_string(tr.stats.requests_kept)});
    summary.add_row({"SLO violators kept",
                     std::to_string(tr.stats.slo_violators_kept)});
    summary.add_row({"spans", std::to_string(tr.stats.spans_recorded)});
    summary.add_row({"controller decisions",
                     std::to_string(tr.stats.decisions_recorded)});
    if (tr.stats.traces_evicted > 0) {
      summary.add_row({"traces evicted (ring full)",
                       std::to_string(tr.stats.traces_evicted)});
    }
    summary.print();

    std::printf("\nPer-service latency breakdown (kept traces):\n");
    breakdown_table(tr).print();

    std::printf("\nCritical paths of the slowest requests:\n");
    critical_path_table(tr, 3).print();

    trace_out << chrome_trace_json(tr);
    trace_out.close();
    std::printf(
        "\nwrote %s (load in Perfetto / chrome://tracing to inspect)\n",
        trace_path.c_str());
  }
  return 0;
}
