#include "trace/export.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <numeric>
#include <string_view>
#include <system_error>

#include "common/assert.hpp"
#include "common/table.hpp"

namespace sg {

namespace {

/// Minimal JSON string escaping (names are ASCII-ish; be safe anyway).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Stable thread id for a container (client endpoint -1 maps to 1).
long long tid_of(int container) { return container + 2LL; }

std::map<int, std::string> name_map(const TraceReport& report) {
  std::map<int, std::string> names;
  names[-1] = "client";
  for (const TraceContainerInfo& c : report.containers) names[c.id] = c.name;
  return names;
}

std::string name_of(const std::map<int, std::string>& names, int container) {
  const auto it = names.find(container);
  if (it != names.end()) return it->second;
  std::string fallback = "c";
  fallback += std::to_string(container);
  return fallback;
}

// Upper bounds on what one JSON field or event writes, for the reservation.
/// Any integer field, or an exact-µs value (16 digits, '.', 3 digits).
constexpr std::size_t kNumberMax = 24;
/// A "%.3f" value: sign, the 309 integer digits of DBL_MAX, '.', 3 digits.
constexpr std::size_t kFixed3Max = 320;
/// The literal text of any one event, numbers and names excluded.
constexpr std::size_t kEventTextMax = 128;

/// Bytes JsonWriter::fixed3 writes for `ns`: below 1e15 ns the value has
/// at most 13 integer digits after rounding; NaN falls to the general case.
std::size_t fixed3_bound(double ns) {
  return std::fabs(ns) < 1e15 ? kNumberMax : kFixed3Max;
}

/// Appends JSON to one string the caller reserves up front. Numbers are
/// written with std::to_chars, so nothing is formatted into temporaries.
class JsonWriter {
 public:
  explicit JsonWriter(std::size_t reserve) { out_.reserve(reserve); }

  JsonWriter& raw(std::string_view s) {
    out_.append(s);
    return *this;
  }

  template <typename Int>
  JsonWriter& integer(Int v) {
    char buf[kNumberMax];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v);
    out_.append(buf, r.ptr);
    return *this;
  }

  /// Non-negative nanoseconds as exact microseconds with three decimals
  /// (integer arithmetic: no float rounding, so output is byte-stable).
  JsonWriter& us(std::int64_t ns) {
    SG_ASSERT(ns >= 0);
    integer(ns / 1000);
    const auto frac = static_cast<int>(ns % 1000);
    const char digits[4] = {'.', static_cast<char>('0' + frac / 100),
                            static_cast<char>('0' + frac / 10 % 10),
                            static_cast<char>('0' + frac % 10)};
    out_.append(digits, sizeof(digits));
    return *this;
  }

  /// ns / 1e3 as printf's "%.3f" prints it: to_chars with a precision is
  /// specified as printf-equivalent in the C locale.
  JsonWriter& fixed3(double ns) {
    char buf[kFixed3Max];
    const auto r = std::to_chars(buf, buf + sizeof(buf), ns / 1e3,
                                 std::chars_format::fixed, 3);
    SG_ASSERT(r.ec == std::errc{});
    out_.append(buf, r.ptr);
    return *this;
  }

  std::size_t size() const { return out_.size(); }
  std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Container names, JSON-escaped once per export.
class NameTable {
 public:
  explicit NameTable(const TraceReport& report) {
    for (const auto& [id, name] : name_map(report)) {
      escaped_.emplace(id, json_escape(name));
    }
  }

  /// Escaped names in id order, for the thread metadata.
  const std::map<int, std::string>& escaped() const { return escaped_; }

  /// Bytes append() writes for `container`.
  std::size_t bound(int container) const {
    const auto it = escaped_.find(container);
    return it != escaped_.end() ? it->second.size() : 1 + kNumberMax;
  }

  /// The escaped name, or "c<id>" for a container without one.
  void append(JsonWriter& w, int container) const {
    const auto it = escaped_.find(container);
    if (it != escaped_.end()) {
      w.raw(it->second);
    } else {
      w.raw("c").integer(container);
    }
  }

 private:
  std::map<int, std::string> escaped_;
};

/// An upper bound on the bytes chrome_trace_json writes for `report`.
std::size_t chrome_trace_bound(const TraceReport& report,
                               const NameTable& names) {
  std::size_t bytes = 4 * kEventTextMax;  // envelope + process metadata
  for (const auto& [id, name] : names.escaped()) {
    bytes += 3 * (kEventTextMax + 2 * kNumberMax + name.size());
  }
  for (const RequestTrace& tr : report.traces) {
    for (const TraceSpan& s : tr.spans) {
      bytes += kEventTextMax + 4 * kNumberMax + names.bound(s.container) +
               names.bound(s.src_container) + fixed3_bound(s.boost_active_ns) +
               fixed3_bound(s.cpu_served_ns) +
               fixed3_bound(static_cast<double>(s.wall().ns()) -
                            s.cpu_served_ns);
    }
  }
  for (const DecisionEvent& d : report.decisions) {
    bytes += kEventTextMax + 4 * kNumberMax + std::strlen(d.controller) +
             std::strlen(to_string(d.kind));
  }
  return bytes;
}

}  // namespace

std::string chrome_trace_json(const TraceReport& report) {
  const NameTable names(report);
  const std::size_t bound = chrome_trace_bound(report, names);
  JsonWriter w(bound);

  // Track metadata: process names + per-container thread names, in id
  // order. The first event is written here, so every later one starts
  // with its ',' separator.
  w.raw("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
        "\"args\":{\"name\":\"services\"}},"
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\"network\"}},"
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,"
        "\"args\":{\"name\":\"controllers\"}}");
  for (const auto& [id, name] : names.escaped()) {
    for (int pid = 0; pid <= 2; ++pid) {
      w.raw(",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":")
          .integer(pid)
          .raw(",\"tid\":")
          .integer(tid_of(id))
          .raw(",\"args\":{\"name\":\"")
          .raw(name)
          .raw("\"}}");
    }
  }

  for (const RequestTrace& tr : report.traces) {
    // Everything from the name's closing quote to the request id, which
    // every span slice shares.
    const auto slice = [&](int pid, const TraceSpan& s) {
      w.raw("\",\"ph\":\"X\",\"pid\":")
          .integer(pid)
          .raw(",\"tid\":")
          .integer(tid_of(s.container))
          .raw(",\"ts\":")
          .us(s.begin.ns())
          .raw(",\"dur\":")
          .us(s.wall().ns())
          .raw(",\"args\":{\"req\":")
          .integer(tr.id());
    };
    for (const TraceSpan& s : tr.spans) {
      switch (s.kind) {
        case SpanKind::kVisit:
          w.raw(",{\"name\":\"");
          names.append(w, s.container);
          slice(0, s);
          w.raw(",\"boost_active_us\":").fixed3(s.boost_active_ns).raw("}}");
          break;
        case SpanKind::kExec:
          w.raw(",{\"name\":\"exec");
          slice(0, s);
          w.raw(",\"cpu_served_us\":")
              .fixed3(s.cpu_served_ns)
              .raw(",\"cpu_queue_us\":")
              .fixed3(static_cast<double>(s.wall().ns()) - s.cpu_served_ns)
              .raw("}}");
          break;
        case SpanKind::kConnWait:
          w.raw(",{\"name\":\"conn-wait");
          slice(0, s);
          w.raw("}}");
          break;
        case SpanKind::kNetHop:
          w.raw(",{\"name\":\"").raw(s.is_response ? "rpc-response" : "rpc");
          slice(1, s);
          w.raw(",\"src\":\"");
          names.append(w, s.src_container);
          w.raw("\"}}");
          break;
      }
    }
  }

  for (const DecisionEvent& d : report.decisions) {
    w.raw(",{\"name\":\"")
        .raw(d.controller)
        .raw(" ")
        .raw(to_string(d.kind))
        .raw("\",\"ph\":\"i\",\"s\":\"t\",\"pid\":2,\"tid\":")
        .integer(tid_of(d.container))
        .raw(",\"ts\":")
        .us(d.at.ns())
        .raw(",\"args\":{\"amount\":")
        .integer(d.amount)
        .raw(",\"node\":")
        .integer(d.node)
        .raw("}}");
  }

  w.raw("]}");
  SG_ASSERT_MSG(w.size() <= bound, "chrome trace outgrew its reservation");
  return w.take();
}

std::vector<BreakdownRow> latency_breakdown(const TraceReport& report) {
  struct Acc {
    std::uint64_t visits = 0;
    double visit_wall = 0.0;
    double exec_wall = 0.0;
    double served = 0.0;
    double conn_wait = 0.0;
    double boost = 0.0;
    double net_in = 0.0;
    std::uint64_t net_in_hops = 0;
  };
  std::map<int, Acc> acc;  // ordered: stable row order by container id
  for (const RequestTrace& tr : report.traces) {
    for (const TraceSpan& s : tr.spans) {
      Acc& a = acc[s.container];
      switch (s.kind) {
        case SpanKind::kVisit:
          ++a.visits;
          a.visit_wall += static_cast<double>(s.wall().ns());
          a.boost += s.boost_active_ns;
          break;
        case SpanKind::kExec:
          a.exec_wall += static_cast<double>(s.wall().ns());
          a.served += s.cpu_served_ns;
          break;
        case SpanKind::kConnWait:
          a.conn_wait += static_cast<double>(s.wall().ns());
          break;
        case SpanKind::kNetHop:
          if (!s.is_response) {
            a.net_in += static_cast<double>(s.wall().ns());
            ++a.net_in_hops;
          }
          break;
      }
    }
  }

  const std::map<int, std::string> names = name_map(report);
  std::vector<BreakdownRow> rows;
  for (const auto& [container, a] : acc) {
    if (a.visits == 0) continue;  // client endpoint / hop-only entries
    BreakdownRow r;
    r.container = container;
    r.service = name_of(names, container);
    r.visits = a.visits;
    r.avg_visit_us = a.visit_wall / static_cast<double>(a.visits) / 1e3;
    if (a.visit_wall > 0.0) {
      const double downstream =
          std::max(0.0, a.visit_wall - a.exec_wall - a.conn_wait);
      r.exec_frac = a.served / a.visit_wall;
      r.cpu_queue_frac = std::max(0.0, a.exec_wall - a.served) / a.visit_wall;
      r.conn_wait_frac = a.conn_wait / a.visit_wall;
      r.downstream_frac = downstream / a.visit_wall;
      r.boost_frac = a.boost / a.visit_wall;
    }
    if (a.net_in_hops > 0) {
      r.avg_net_in_us = a.net_in / static_cast<double>(a.net_in_hops) / 1e3;
    }
    rows.push_back(std::move(r));
  }
  return rows;
}

TablePrinter breakdown_table(const TraceReport& report) {
  TablePrinter t({"service", "visits", "avg visit (us)", "exec", "cpu queue",
                  "conn wait", "downstream", "boost active", "net in (us)"});
  auto pct = [](double f) { return fmt_double(100.0 * f, 1) + "%"; };
  for (const BreakdownRow& r : latency_breakdown(report)) {
    t.add_row({r.service, std::to_string(r.visits),
               fmt_double(r.avg_visit_us, 1), pct(r.exec_frac),
               pct(r.cpu_queue_frac), pct(r.conn_wait_frac),
               pct(r.downstream_frac), pct(r.boost_frac),
               fmt_double(r.avg_net_in_us, 1)});
  }
  return t;
}

std::vector<CriticalPath> critical_paths(const TraceReport& report,
                                         std::size_t k) {
  // Slowest k kept traces, latency desc (id asc on ties: deterministic).
  std::vector<std::size_t> order(report.traces.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (report.traces[a].latency != report.traces[b].latency) {
      return report.traces[a].latency > report.traces[b].latency;
    }
    return report.traces[a].id() < report.traces[b].id();
  });
  if (order.size() > k) order.resize(k);

  std::vector<CriticalPath> out;
  for (const std::size_t ti : order) {
    const RequestTrace& tr = report.traces[ti];
    std::vector<TraceSpan> spans;
    for (const TraceSpan& s : tr.spans) {
      if (s.kind != SpanKind::kVisit) spans.push_back(s);
    }
    CriticalPath cp;
    cp.id = tr.id();
    cp.latency = tr.latency;

    // Greedy interval cover: at each instant follow the covering span that
    // extends furthest; uncovered stretches (possible only for parallel
    // fan-out) are reported as gaps rather than silently attributed.
    TimePoint t = tr.begin;
    const TimePoint end = tr.end;
    while (t < end) {
      const TraceSpan* best = nullptr;
      for (const TraceSpan& s : spans) {
        if (s.begin <= t && s.end > t && (best == nullptr || s.end > best->end)) {
          best = &s;
        }
      }
      if (best == nullptr) {
        TimePoint next = end;
        for (const TraceSpan& s : spans) {
          if (s.begin > t && s.begin < next) next = s.begin;
        }
        cp.gap_ns += next - t;
        t = next;
        continue;
      }
      const TimePoint seg_end = std::min(best->end, end);
      const Duration d = seg_end - t;
      switch (best->kind) {
        case SpanKind::kExec: {
          const double frac =
              best->wall() > Duration::zero()
                  ? std::clamp(best->cpu_served_ns /
                                   static_cast<double>(best->wall().ns()),
                               0.0, 1.0)
                  : 0.0;
          const Duration served = Duration{
              std::llround(static_cast<double>(d.ns()) * frac)};
          cp.exec_ns += served;
          cp.queue_ns += d - served;
          break;
        }
        case SpanKind::kConnWait:
          cp.queue_ns += d;
          break;
        case SpanKind::kNetHop:
          cp.net_ns += d;
          break;
        case SpanKind::kVisit:
          break;  // filtered out above
      }
      cp.segments.push_back({best->kind, best->container, t, seg_end});
      t = seg_end;
    }
    out.push_back(std::move(cp));
  }
  return out;
}

TablePrinter critical_path_table(const TraceReport& report, std::size_t k) {
  TablePrinter t({"request", "latency", "exec", "cpu+conn queue", "net",
                  "gap", "segments"});
  for (const CriticalPath& cp : critical_paths(report, k)) {
    t.add_row({std::to_string(cp.id), format_time(cp.latency),
               format_time(cp.exec_ns), format_time(cp.queue_ns),
               format_time(cp.net_ns), format_time(cp.gap_ns),
               std::to_string(cp.segments.size())});
  }
  return t;
}

}  // namespace sg
