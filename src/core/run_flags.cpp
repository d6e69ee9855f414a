#include "core/run_flags.hpp"

namespace sg {

std::optional<RunFlags> parse_run_flags(const std::vector<std::string>& args,
                                        std::string* error) {
  RunFlags flags;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    // Reads the flag's value into `key`, or reports it missing.
    const auto set_from_value = [&](const char* key) {
      if (i + 1 >= args.size()) {
        if (error != nullptr) *error = flag + " requires a value";
        return false;
      }
      flags.overrides.emplace_back(key, args[++i]);
      return true;
    };
    if (flag == "--histogram") {
      flags.histogram = true;
    } else if (flag == "--quiet") {
      flags.quiet = true;
    } else if (flag == "--fault-plan") {
      if (!set_from_value("fault.plan")) return std::nullopt;
    } else if (flag == "--trace") {
      flags.overrides.emplace_back("trace.enabled", "true");
    } else if (flag == "--trace-sample" || flag == "--trace-out") {
      // A sample rate or an output path implies --trace.
      flags.overrides.emplace_back("trace.enabled", "true");
      if (!set_from_value(flag == "--trace-sample" ? "trace.sample"
                                                   : "trace.out")) {
        return std::nullopt;
      }
    } else {
      if (error != nullptr) *error = "unknown flag '" + flag + "' (see --help)";
      return std::nullopt;
    }
  }
  return flags;
}

}  // namespace sg
