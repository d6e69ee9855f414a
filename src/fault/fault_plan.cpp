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
        // Truncated to whole ns; a zero len_ms is left to validate().
        const double ns = num * (key == "extra_us" ? 1e3 : 1e6);
        if (!Duration::fits(ns)) return invalid("does not fit in a duration");
        const Duration d{static_cast<std::int64_t>(ns)};
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
  char buf[160];
  for (const FaultWindow& w : windows_) {
    if (!out.empty()) out += ";";
    out += sg::to_string(w.kind);
    std::snprintf(buf, sizeof(buf), ":start_ms=%g,len_ms=%g",
                  w.start.since_origin().millis(), (w.end - w.start).millis());
    out += buf;
    switch (w.kind) {
      case FaultKind::kPacketDrop:
      case FaultKind::kPacketDup:
        std::snprintf(buf, sizeof(buf), ",rate=%g", w.rate);
        out += buf;
        break;
      case FaultKind::kPacketDelay:
        std::snprintf(buf, sizeof(buf), ",extra_us=%g",
                      w.extra_delay.micros());
        out += buf;
        break;
      case FaultKind::kNodeSlowdown:
        std::snprintf(buf, sizeof(buf), ",factor=%g,node=%d", w.factor,
                      w.node);
        out += buf;
        break;
      case FaultKind::kNodeFreeze:
        std::snprintf(buf, sizeof(buf), ",node=%d", w.node);
        out += buf;
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
