#include "trace/export.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <numeric>

#include "common/csv.hpp"

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

/// Nanoseconds -> microseconds with exact 3-decimal precision (integer
/// arithmetic: no float rounding, so output is byte-stable).
std::string fmt_us(Duration d) {
  const std::int64_t ns = d.ns();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  return buf;
}

std::string fmt_us(TimePoint p) { return fmt_us(p.since_origin()); }

std::string fmt_us_d(double ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", ns / 1e3);
  return buf;
}

/// Stable thread id for a container (client endpoint -1 maps to 1).
long long tid_of(int container) { return container + 2; }

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

}  // namespace

std::string chrome_trace_json(const TraceReport& report) {
  const std::map<int, std::string> names = name_map(report);
  std::string out;
  out.reserve(1u << 16);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto event = [&](const std::string& body) {
    if (!first) out += ',';
    first = false;
    out += '{';
    out += body;
    out += '}';
  };

  // Track metadata: process names + per-container thread names. std::map
  // iteration keeps the order stable.
  event("\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
        "\"args\":{\"name\":\"services\"}");
  event("\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\"network\"}");
  event("\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,"
        "\"args\":{\"name\":\"controllers\"}");
  for (const auto& [id, name] : names) {
    for (int pid = 0; pid <= 2; ++pid) {
      event("\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" +
            std::to_string(pid) +
            ",\"tid\":" + std::to_string(tid_of(id)) +
            ",\"args\":{\"name\":\"" + json_escape(name) + "\"}");
    }
  }

  for (const RequestTrace& tr : report.traces) {
    const std::string req = std::to_string(tr.id);
    for (const TraceSpan& s : tr.spans) {
      std::string body;
      switch (s.kind) {
        case SpanKind::kVisit:
          body = "\"name\":\"" + json_escape(name_of(names, s.container)) +
                 "\",\"ph\":\"X\",\"pid\":0,\"tid\":" +
                 std::to_string(tid_of(s.container)) +
                 ",\"ts\":" + fmt_us(s.begin) + ",\"dur\":" + fmt_us(s.wall()) +
                 ",\"args\":{\"req\":" + req +
                 ",\"boost_active_us\":" + fmt_us_d(s.boost_active_ns) + "}";
          break;
        case SpanKind::kExec:
          body = "\"name\":\"exec\",\"ph\":\"X\",\"pid\":0,\"tid\":" +
                 std::to_string(tid_of(s.container)) +
                 ",\"ts\":" + fmt_us(s.begin) + ",\"dur\":" + fmt_us(s.wall()) +
                 ",\"args\":{\"req\":" + req +
                 ",\"cpu_served_us\":" + fmt_us_d(s.cpu_served_ns) +
                 ",\"cpu_queue_us\":" +
                 fmt_us_d(static_cast<double>(s.wall().ns()) - s.cpu_served_ns) +
                 "}";
          break;
        case SpanKind::kConnWait:
          body = "\"name\":\"conn-wait\",\"ph\":\"X\",\"pid\":0,\"tid\":" +
                 std::to_string(tid_of(s.container)) +
                 ",\"ts\":" + fmt_us(s.begin) + ",\"dur\":" + fmt_us(s.wall()) +
                 ",\"args\":{\"req\":" + req + "}";
          break;
        case SpanKind::kNetHop:
          body = std::string("\"name\":\"") +
                 (s.is_response ? "rpc-response" : "rpc") +
                 "\",\"ph\":\"X\",\"pid\":1,\"tid\":" +
                 std::to_string(tid_of(s.container)) +
                 ",\"ts\":" + fmt_us(s.begin) + ",\"dur\":" + fmt_us(s.wall()) +
                 ",\"args\":{\"req\":" + req + ",\"src\":\"" +
                 json_escape(name_of(names, s.src_container)) + "\"}";
          break;
      }
      event(body);
    }
  }

  for (const DecisionEvent& d : report.decisions) {
    event(std::string("\"name\":\"") + d.controller + " " +
          to_string(d.kind) + "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":2,\"tid\":" +
          std::to_string(tid_of(d.container)) + ",\"ts\":" + fmt_us(d.at) +
          ",\"args\":{\"amount\":" + std::to_string(d.amount) +
          ",\"node\":" + std::to_string(d.node) + "}");
  }

  out += "]}";
  return out;
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
    return report.traces[a].id < report.traces[b].id;
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
    cp.id = tr.id;
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
