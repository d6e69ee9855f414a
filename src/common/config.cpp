#include "common/config.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace sg {
namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())))
    s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())))
    s.remove_suffix(1);
  return s;
}

}  // namespace

std::optional<Config> Config::parse(std::string_view text, std::string* error) {
  Config cfg;
  std::string section;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line = (eol == std::string_view::npos)
                                ? text.substr(pos)
                                : text.substr(pos, eol - pos);
    pos = (eol == std::string_view::npos) ? text.size() + 1 : eol + 1;
    ++line_no;

    // Strip comments (full-line or trailing).
    if (const std::size_t hash = line.find('#'); hash != std::string_view::npos)
      line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']') {
        if (error)
          *error = "line " + std::to_string(line_no) + ": unterminated section";
        return std::nullopt;
      }
      section = std::string(trim(line.substr(1, line.size() - 2)));
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      if (error)
        *error = "line " + std::to_string(line_no) + ": expected key = value";
      return std::nullopt;
    }
    const std::string_view key = trim(line.substr(0, eq));
    const std::string_view value = trim(line.substr(eq + 1));
    if (key.empty()) {
      if (error) *error = "line " + std::to_string(line_no) + ": empty key";
      return std::nullopt;
    }
    std::string full_key =
        section.empty() ? std::string(key) : section + "." + std::string(key);
    cfg.values_[std::move(full_key)] = std::string(value);
  }
  return cfg;
}

std::optional<Config> Config::load(const std::string& path,
                                   std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse(ss.str(), error);
}

bool Config::has(const std::string& key) const {
  return values_.count(key) > 0;
}

std::string Config::get_string(const std::string& key,
                               const std::string& def) const {
  const auto it = values_.find(key);
  return it == values_.end() ? def : it->second;
}

std::optional<double> Config::try_get_double(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return to_double(it->second);
}

std::optional<double> Config::to_double(const std::string& value) {
  const char* begin = value.c_str();
  char* end = nullptr;
  const double v = std::strtod(begin, &end);
  if (end == begin || end != begin + value.size()) return std::nullopt;
  return v;
}

std::optional<long long> Config::to_int(const std::string& value) {
  const char* begin = value.c_str();
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(begin, &end, 10);
  if (end == begin || end != begin + value.size() || errno == ERANGE) {
    return std::nullopt;
  }
  return v;
}

std::optional<bool> Config::to_bool(const std::string& v) {
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  return std::nullopt;
}

void Config::set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

std::vector<std::string> Config::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, v] : values_) out.push_back(k);
  return out;
}

}  // namespace sg
