// Key/value configuration files, mirroring the paper artifact's
// controllers/sample_config: per-service parameters (expectedExecMetric,
// expectedTimeFromStart), initial core allocations, and controller knobs are
// specified in a flat `key = value` file with `#` comments and optional
// `[section]` grouping (section names are prefixed onto keys as
// "section.key").
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sg {

class Config {
 public:
  Config() = default;

  /// Parses config text; returns std::nullopt plus a message via `error` on
  /// malformed input (line without '=', unterminated section, ...).
  static std::optional<Config> parse(std::string_view text,
                                     std::string* error = nullptr);

  /// Loads and parses a file.
  static std::optional<Config> load(const std::string& path,
                                    std::string* error = nullptr);

  bool has(const std::string& key) const;

  /// The raw value, or `def` for an absent key.
  std::string get_string(const std::string& key,
                         const std::string& def = "") const;

  /// The value as a double: nullopt for an absent key or a value that does
  /// not parse as a whole double (see to_double), never a silent default.
  std::optional<double> try_get_double(const std::string& key) const;

  /// A raw value parsed as the whole of a type, or nullopt. An integer
  /// beyond long long's range is nullopt, never clamped to the nearest end.
  static std::optional<double> to_double(const std::string& value);
  static std::optional<long long> to_int(const std::string& value);
  /// true/1/yes/on or false/0/no/off.
  static std::optional<bool> to_bool(const std::string& value);

  void set(const std::string& key, const std::string& value);

  /// Every key, sorted (validation passes enumerate against a known set).
  std::vector<std::string> keys() const;

  std::size_t size() const { return values_.size(); }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace sg
