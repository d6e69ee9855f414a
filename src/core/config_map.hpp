// Config-file -> ExperimentConfig mapping (the paper artifact's workflow).
//
// The artifact drives experiments from a flat config file
// (controllers/sample_config): workload selection, controller, surge shape,
// and per-service parameters. `experiment_from_config` reproduces that
// interface on top of the library's ExperimentConfig, and
// `targets_from_config` lets users pin per-service expectedExecMetric /
// expectedTimeFromStart values instead of profiling (paper §IV: "these
// values can either be set by the user or obtained through online
// profiling").
//
// Recognized keys (see sample_config at the repository root):
//   workload            = chain | readUserTimeline | composePost | ...
//   controller          = static | parties | caladan | escalator |
//                         surgeguard | ideal | centralized-ml |
//                         ml+surgeguard
//   nodes               = 1
//   warmup_s, duration_s, qos_mult, target_mult, seed
//   rate_rps            (base-rate override, wrk2 -rate)
//   surge.mult, surge.len_ms, surge.period_s
//   fault.plan          (FaultPlan spec, see fault/fault_plan.hpp; its
//                        `delay` windows are the network-latency surges)
//   retry.enabled, retry.timeout_ms, retry.backoff, retry.max
//   drain_s             (post-measurement drain window)
//   membw.node_bw_gbs, membw.demand_per_core_gbs
//   ideal.detection_delay_ms
//   trace.enabled, trace.sample, trace.capacity, trace.keep_violators,
//   trace.out           (export path; consumed by sg_run)
//   service.<name>.expected_exec_metric_us
//   service.<name>.expected_time_from_start_us
//                       (<name> must be a service of the selected workload;
//                        the value at least 0.001 (1 ns) and within a
//                        Duration's range)
//
// A recognized key whose value does not parse as its type (`nodes = 2x`,
// `duration_s = two`, `enabled = ture`) is an error naming the key and the
// value. So is a key that no consumer reads: a misspelled knob
// ("retry.timout_s") or a stale one ("[netdelay]") is rejected by name
// instead of running with the default.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "core/experiment.hpp"

namespace sg {

/// Parses a controller name ("surgeguard", "parties", ...); nullopt on
/// unknown names.
std::optional<ControllerKind> controller_from_string(const std::string& name);

/// Builds an ExperimentConfig from a parsed Config. Returns nullopt and
/// fills `error` on an unknown key, an unknown workload/controller, a value
/// that does not parse as its key's type, or an out-of-range value.
std::optional<ExperimentConfig> experiment_from_config(const Config& cfg,
                                                       std::string* error);

/// Applies user-pinned per-service targets from `service.<name>.*` keys on
/// top of a profiled TargetMap (unpinned services keep profiled values).
/// Returns how many services were overridden.
int apply_target_overrides(const Config& cfg, const WorkloadInfo& workload,
                           TargetMap* targets);

/// Keys in `cfg` that no consumer recognizes (sorted). The known set is the
/// list in this header plus the `service.<name>.*` target-override pattern.
std::vector<std::string> unknown_config_keys(const Config& cfg);

}  // namespace sg
