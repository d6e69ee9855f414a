// sample_config, the repository's documented config file, as the config
// tests read it: as shipped, and with every commented example turned on.
#pragma once

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

namespace sg::test {

/// The text of sample_config (SG_SAMPLE_CONFIG is its path).
inline std::string sample_config_text() {
  std::ifstream in(SG_SAMPLE_CONFIG);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Whether `line` is a commented example: `# [section]`, or `# key = value`
/// with a key of word characters and dots and a value without spaces.
inline bool is_commented_example(std::string_view line) {
  if (!line.starts_with("# ")) return false;
  line.remove_prefix(2);
  if (line.starts_with('[')) {
    return line.size() > 2 && line.ends_with(']') &&
           line.find(' ') == std::string_view::npos;
  }
  const std::size_t eq = line.find(" = ");
  if (eq == 0 || eq == std::string_view::npos) return false;
  const std::string_view key = line.substr(0, eq);
  const std::string_view value = line.substr(eq + 3);
  return std::all_of(key.begin(), key.end(),
                     [](char c) {
                       return std::isalnum(static_cast<unsigned char>(c)) ||
                              c == '_' || c == '.';
                     }) &&
         !value.empty() && value.find(' ') == std::string_view::npos;
}

/// `text` with every commented example uncommented. Prose comments keep
/// their `# `.
inline std::string uncomment_examples(const std::string& text) {
  std::istringstream in(text);
  std::string out;
  for (std::string line; std::getline(in, line);) {
    if (is_commented_example(line)) line.erase(0, 2);
    out += line + '\n';
  }
  return out;
}

}  // namespace sg::test
