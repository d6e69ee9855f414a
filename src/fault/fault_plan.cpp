#include "fault/fault_plan.hpp"

#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace sg {

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kPacketDrop: return "drop";
    case FaultKind::kPacketDup: return "dup";
    case FaultKind::kPacketDelay: return "delay";
    case FaultKind::kNodeSlowdown: return "slow";
    case FaultKind::kNodeFreeze: return "freeze";
    case FaultKind::kControllerStall: return "stall";
  }
  return "?";
}

namespace {

std::optional<FaultKind> kind_from_string(const std::string& s) {
  if (s == "drop") return FaultKind::kPacketDrop;
  if (s == "dup") return FaultKind::kPacketDup;
  if (s == "delay") return FaultKind::kPacketDelay;
  if (s == "slow") return FaultKind::kNodeSlowdown;
  if (s == "freeze") return FaultKind::kNodeFreeze;
  if (s == "stall") return FaultKind::kControllerStall;
  return std::nullopt;
}

/// Whether a window of `kind` reads `key`. Unknown keys return true and are
/// rejected by the parser as unknown.
bool kind_reads_key(FaultKind kind, const std::string& key) {
  if (key == "node") {
    return kind == FaultKind::kNodeSlowdown || kind == FaultKind::kNodeFreeze;
  }
  if (key == "rate") {
    return kind == FaultKind::kPacketDrop || kind == FaultKind::kPacketDup;
  }
  if (key == "factor") return kind == FaultKind::kNodeSlowdown;
  if (key == "extra_us") return kind == FaultKind::kPacketDelay;
  return true;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t next = s.find(sep, pos);
    if (next == std::string::npos) {
      out.push_back(s.substr(pos));
      break;
    }
    out.push_back(s.substr(pos, next - pos));
    pos = next + 1;
  }
  return out;
}

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t");
  std::size_t e = s.find_last_not_of(" \t");
  if (b == std::string::npos) return "";
  return s.substr(b, e - b + 1);
}

/// `num` units of `unit_ns` ns each, rounded to the nearest ns; nullopt
/// when that does not fit in a Duration.
std::optional<Duration> to_duration(double num, double unit_ns) {
  const double ns = num * unit_ns;
  if (!Duration::fits(ns)) return std::nullopt;
  return Duration{static_cast<std::int64_t>(std::round(ns))};
}

/// `x` in %g form at the fewest significant digits, 6 (%g's default) or
/// more, that `reads_back` accepts; at 17 digits when none is accepted.
template <typename ReadsBack>
std::string shortest_g(double x, ReadsBack reads_back) {
  char buf[32];
  for (int digits = 6; digits <= 17; ++digits) {
    std::snprintf(buf, sizeof(buf), "%.*g", digits, x);
    if (reads_back(buf)) break;
  }
  return buf;
}

/// A rate or factor, printed so that strtod reads back the same double.
std::string format_number(double x) {
  return shortest_g(x, [x](const char* s) {
    return std::strtod(s, nullptr) == x;
  });
}

/// A duration in units of `unit_ns`, printed so that parse() reads back the
/// same ns count. From about 2^52 ns up, the quotient can miss every double
/// that parse() maps to `d` by an ulp or two, so the doubles up to 4 ulps
/// either side are tried too.
std::string format_duration(Duration d, double unit_ns) {
  const auto reads_back = [d, unit_ns](const char* s) {
    return to_duration(std::strtod(s, nullptr), unit_ns) == d;
  };
  const double x = static_cast<double>(d.ns()) / unit_ns;
  double y = x;
  for (int i = 0; i < 4; ++i) y = std::nextafter(y, -HUGE_VAL);
  for (int i = 0; i <= 8; ++i, y = std::nextafter(y, HUGE_VAL)) {
    std::string s = shortest_g(y, reads_back);
    if (reads_back(s.c_str())) return s;
  }
  return shortest_g(x, reads_back);  // a window built in code, > 2^53 ns
}

}  // namespace

std::optional<FaultPlan> FaultPlan::parse(const std::string& spec,
                                          std::string* error) {
  auto fail = [&](const std::string& msg) -> std::optional<FaultPlan> {
    if (error) *error = msg;
    return std::nullopt;
  };

  FaultPlan plan;
  for (const std::string& raw : split(spec, ';')) {
    const std::string entry = trim(raw);
    if (entry.empty()) continue;
    const std::size_t colon = entry.find(':');
    if (colon == std::string::npos) {
      return fail("window '" + entry + "' missing 'kind:' prefix");
    }
    const auto kind = kind_from_string(trim(entry.substr(0, colon)));
    if (!kind) {
      return fail("unknown fault kind '" + entry.substr(0, colon) + "'");
    }
    FaultWindow w;
    w.kind = *kind;
    Duration len;
    std::string len_text;
    for (const std::string& kv_raw : split(entry.substr(colon + 1), ',')) {
      const std::string kv = trim(kv_raw);
      if (kv.empty()) continue;
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos) {
        return fail("expected key=value, got '" + kv + "'");
      }
      const std::string key = trim(kv.substr(0, eq));
      const std::string val = trim(kv.substr(eq + 1));
      if (!kind_reads_key(w.kind, key)) {
        return fail("key '" + key + "' does not apply to " +
                    sg::to_string(w.kind) + " windows");
      }
      const auto invalid = [&](const char* why) {
        return fail("invalid value '" + val + "' for key '" + key +
                    "': " + why);
      };
      char* endp = nullptr;
      const double num = std::strtod(val.c_str(), &endp);
      if (endp == val.c_str() || *endp != '\0') return invalid("not a number");
      if (!std::isfinite(num)) return invalid("must be a finite number");
      if (key == "start_ms" || key == "len_ms" || key == "extra_us") {
        // Rounded to the nearest ns; a zero len_ms is left to validate().
        const auto rounded = to_duration(num, key == "extra_us" ? 1e3 : 1e6);
        if (!rounded) return invalid("does not fit in a duration");
        const Duration d = *rounded;
        if (d < Duration::zero()) return invalid("must be >= 0");
        if (key == "start_ms") {
          w.start = TimePoint::at(d);
        } else if (key == "len_ms") {
          len = d;
          len_text = val;
        } else {
          w.extra_delay = d;
        }
      } else if (key == "rate") {
        if (!(num >= 0.0 && num <= 1.0)) return invalid("must be in [0, 1]");
        w.rate = num;
      } else if (key == "factor") {
        if (!(num > 0.0 && num <= 1.0)) return invalid("must be in (0, 1]");
        w.factor = num;
      } else if (key == "node") {
        if (num != std::trunc(num) || num < -1.0 || num > INT_MAX) {
          return invalid("must be a node id or -1 (every node)");
        }
        w.node = static_cast<int>(num);
      } else {
        return fail("unknown key '" + key + "'");
      }
    }
    // start and len are each >= 0 and below 2^63 ns; their sum may not be.
    if (len > Duration::infinity() - w.start.since_origin()) {
      return fail("invalid value '" + len_text +
                  "' for key 'len_ms': the window end, start_ms + len_ms, "
                  "does not fit in a duration");
    }
    w.end = w.start + len;
    plan.add(w);
  }
  if (!plan.validate(error)) return std::nullopt;
  return plan;
}

bool FaultPlan::validate(std::string* error) const {
  auto fail = [&](const std::string& msg) {
    if (error) *error = msg;
    return false;
  };
  for (const FaultWindow& w : windows_) {
    const std::string tag = std::string(sg::to_string(w.kind));
    if (w.start < TimePoint::origin()) {
      return fail(tag + " window starts before t=0");
    }
    if (w.end <= w.start) {
      return fail(tag + " window needs a positive len_ms");
    }
    switch (w.kind) {
      case FaultKind::kPacketDrop:
      case FaultKind::kPacketDup:
        if (!(w.rate >= 0.0 && w.rate <= 1.0)) {
          return fail(tag + " rate must be in [0, 1]");
        }
        break;
      case FaultKind::kPacketDelay:
        if (w.extra_delay < Duration::zero()) {
          return fail("delay extra_us must be >= 0");
        }
        break;
      case FaultKind::kNodeSlowdown:
        if (!(w.factor > 0.0 && w.factor <= 1.0)) {
          return fail("slow factor must be in (0, 1]");
        }
        break;
      case FaultKind::kNodeFreeze:
      case FaultKind::kControllerStall:
        break;
    }
  }
  return true;
}

std::string FaultPlan::to_string() const {
  std::string out;
  for (const FaultWindow& w : windows_) {
    if (!out.empty()) out += ";";
    out += sg::to_string(w.kind);
    out += ":start_ms=" + format_duration(w.start.since_origin(), 1e6);
    out += ",len_ms=" + format_duration(w.end - w.start, 1e6);
    switch (w.kind) {
      case FaultKind::kPacketDrop:
      case FaultKind::kPacketDup:
        out += ",rate=" + format_number(w.rate);
        break;
      case FaultKind::kPacketDelay:
        out += ",extra_us=" + format_duration(w.extra_delay, 1e3);
        break;
      case FaultKind::kNodeSlowdown:
        out += ",factor=" + format_number(w.factor);
        out += ",node=" + std::to_string(w.node);
        break;
      case FaultKind::kNodeFreeze:
        out += ",node=" + std::to_string(w.node);
        break;
      case FaultKind::kControllerStall:
        break;
    }
  }
  return out;
}

double FaultPlan::drop_rate_at(TimePoint t) const {
  double keep = 1.0;
  for (const FaultWindow& w : windows_) {
    if (w.kind == FaultKind::kPacketDrop && w.active_at(t)) {
      keep *= 1.0 - w.rate;
    }
  }
  return 1.0 - keep;
}

double FaultPlan::dup_rate_at(TimePoint t) const {
  double keep = 1.0;
  for (const FaultWindow& w : windows_) {
    if (w.kind == FaultKind::kPacketDup && w.active_at(t)) {
      keep *= 1.0 - w.rate;
    }
  }
  return 1.0 - keep;
}

Duration FaultPlan::extra_delay_at(TimePoint t) const {
  Duration total;
  for (const FaultWindow& w : windows_) {
    if (w.kind == FaultKind::kPacketDelay && w.active_at(t)) {
      total += w.extra_delay;
    }
  }
  return total;
}

bool FaultPlan::controller_stalled_at(TimePoint t) const {
  for (const FaultWindow& w : windows_) {
    if (w.kind == FaultKind::kControllerStall && w.active_at(t)) return true;
  }
  return false;
}

}  // namespace sg
