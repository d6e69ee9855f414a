// Config-file -> ExperimentConfig mapping (the paper artifact's workflow).
//
// The artifact drives experiments from a flat config file
// (controllers/sample_config): workload selection, controller, surge shape,
// and per-service parameters. `experiment_from_config` reproduces that
// interface on top of the library's ExperimentConfig, and
// `apply_target_overrides` lets users pin per-service expectedExecMetric /
// expectedTimeFromStart values instead of profiling (paper §IV: "these
// values can either be set by the user or obtained through online
// profiling").
//
// The settable keys are the rows of one table, kKeys in config_map.cpp
// (config_keys() lists them; sample_config at the repository root documents
// each, and a test checks it), plus the
// per-service target pattern
//   service.<name>.expected_exec_metric_us
//   service.<name>.expected_time_from_start_us
// whose <name> must be a service of the selected workload. Each row parses
// its raw value, checks its range and writes its field. A value it cannot
// take (`nodes = 2x`, `duration_s = 0`, `enabled = ture`) is an error naming
// the key and the value. So is a key with no row: a misspelled knob
// ("retry.timout_s") or a stale one ("[netdelay]") is rejected by name
// instead of running with the default.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/config.hpp"
#include "core/experiment.hpp"

namespace sg {

/// Builds an ExperimentConfig from a parsed Config. Returns nullopt and
/// fills `error` on an unknown key (`unknown config key '<k>'`, reported
/// first) or on a value its row cannot take (`invalid value '<v>' for key
/// '<k>': <why>`), including an unknown workload or controller, or on an
/// enabled retry policy that is invalid as a whole (`invalid retry
/// policy: ...`).
std::optional<ExperimentConfig> experiment_from_config(const Config& cfg,
                                                       std::string* error);

/// The keys of kKeys, in row order (the service.<name>.* target keys are a
/// pattern, not rows, so they are not listed).
std::vector<std::string_view> config_keys();

/// Applies user-pinned per-service targets from `service.<name>.*` keys on
/// top of a profiled TargetMap (unpinned services keep profiled values).
/// Returns how many services were overridden.
int apply_target_overrides(const Config& cfg, const WorkloadInfo& workload,
                           TargetMap* targets);

}  // namespace sg
