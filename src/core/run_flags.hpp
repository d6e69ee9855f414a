// sg_run's command-line flags (everything after the config file).
//
// Two flags only change what sg_run prints (--histogram, --quiet); the
// others set config keys, applied over the file's values so a flag value is
// checked exactly like the key's:
//   --fault-plan SPEC   fault.plan
//   --trace             trace.enabled = true
//   --trace-sample R    trace.enabled = true, trace.sample
//   --trace-out PATH    trace.enabled = true, trace.out
// --help is handled before this parser runs, wherever it appears.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace sg {

struct RunFlags {
  bool histogram = false;
  bool quiet = false;
  /// (key, value) pairs the flags set, in flag order.
  std::vector<std::pair<std::string, std::string>> overrides;
};

/// Parses `args` (argv after the config file). Returns nullopt and fills
/// `error` naming the flag on an unknown flag (`unknown flag '<f>' (see
/// --help)`) or a flag missing its value (`<f> requires a value`).
std::optional<RunFlags> parse_run_flags(const std::vector<std::string>& args,
                                        std::string* error);

}  // namespace sg
