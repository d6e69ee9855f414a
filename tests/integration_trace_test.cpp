// End-to-end properties of sg::trace on a real simulated testbed:
//   * exact slack attribution — a traced request's exec + conn-wait +
//     net-hop spans tile its end-to-end latency to the nanosecond
//     (sequential CHAIN task graph);
//   * determinism — same seed, byte-identical exported trace JSON;
//   * zero observer effect — tracing disabled vs enabled leaves the event
//     count and every latency percentile bit-identical;
//   * surge runs produce breakdown rows, decisions, and kept violators;
//   * kept spans are stored in at most 16 bytes each on average;
//   * every controller records its decisions in the audit under its own
//     source name, on a real node and container, and each controller
//     kind's audit matches tests/golden/controller_audit.txt exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "trace/export.hpp"

namespace sg {
namespace {

ExperimentConfig base_config() {
  ExperimentConfig cfg;
  cfg.workload = make_chain();
  cfg.controller = ControllerKind::kSurgeGuard;
  cfg.warmup = 1 * kSecond;
  cfg.duration = 3 * kSecond;
  cfg.seed = 7;
  return cfg;
}

ExperimentConfig steady_traced_config() {
  ExperimentConfig cfg = base_config();
  cfg.surge_mult = 1.0;  // steady load: no surge windows
  cfg.trace_enabled = true;
  cfg.trace_sample = 1.0;
  cfg.trace_capacity = 1u << 16;  // keep everything: no ring eviction
  return cfg;
}

TEST(IntegrationTraceTest, SpanSegmentsTileEndToEndLatencyExactly) {
  const ExperimentResult r = run_experiment(steady_traced_config());
  ASSERT_TRUE(r.trace.has_value());
  const TraceReport& tr = *r.trace;
  ASSERT_GT(tr.traces.size(), 100u);
  EXPECT_EQ(tr.stats.traces_evicted, 0u);

  for (const RequestTrace& t : tr.traces) {
    Duration covered;
    for (const TraceSpan& s : t.spans) {
      if (s.kind == SpanKind::kVisit) continue;  // encloses exec/conn-wait
      covered += s.wall();
    }
    // CHAIN is sequential: exec + conn-wait + net segments are contiguous,
    // so their walls sum to the client-observed latency within 1 ns.
    EXPECT_NEAR(static_cast<double>(covered.ns()),
                static_cast<double>(t.latency.ns()), 1.0)
        << "request " << t.id();
    EXPECT_EQ(t.end - t.begin, t.latency) << "request " << t.id();
  }
}

TEST(IntegrationTraceTest, ExecSpansDecomposeIntoServedPlusQueue) {
  const ExperimentResult r = run_experiment(steady_traced_config());
  ASSERT_TRUE(r.trace.has_value());
  std::uint64_t exec_spans = 0;
  for (const RequestTrace& t : r.trace->traces) {
    for (const TraceSpan& s : t.spans) {
      if (s.kind != SpanKind::kExec) continue;
      ++exec_spans;
      // Served core share can never exceed the wall (it is an integral of a
      // quantity <= 1); allow float-integration slop of 1 ns.
      EXPECT_LE(s.cpu_served_ns, static_cast<double>(s.wall().ns()) + 1.0);
      EXPECT_GE(s.cpu_served_ns, 0.0);
    }
  }
  EXPECT_GT(exec_spans, 0u);
}

TEST(IntegrationTraceTest, SameSeedProducesByteIdenticalTraceJson) {
  const ExperimentResult a = run_experiment(steady_traced_config());
  const ExperimentResult b = run_experiment(steady_traced_config());
  ASSERT_TRUE(a.trace.has_value());
  ASSERT_TRUE(b.trace.has_value());
  const std::string ja = chrome_trace_json(*a.trace);
  const std::string jb = chrome_trace_json(*b.trace);
  EXPECT_GT(ja.size(), 1000u);
  EXPECT_EQ(ja, jb);
}

TEST(IntegrationTraceTest, TracingHasZeroObserverEffect) {
  ExperimentConfig off = base_config();
  ExperimentConfig on = base_config();
  on.trace_enabled = true;
  on.trace_sample = 0.25;  // sampling must not perturb the run either

  const ExperimentResult r_off = run_experiment(off);
  const ExperimentResult r_on = run_experiment(on);

  EXPECT_FALSE(r_off.trace.has_value());
  ASSERT_TRUE(r_on.trace.has_value());
  EXPECT_GT(r_on.trace->stats.requests_recorded, 0u);

  // Bit-identical simulation: same event count, same completions, same
  // percentiles. Tracing only observes; it never schedules or draws RNG.
  EXPECT_EQ(r_off.events_processed, r_on.events_processed);
  EXPECT_EQ(r_off.load.completed, r_on.load.completed);
  EXPECT_EQ(r_off.load.issued, r_on.load.issued);
  EXPECT_EQ(r_off.load.p50, r_on.load.p50);
  EXPECT_EQ(r_off.load.p98, r_on.load.p98);
  EXPECT_EQ(r_off.load.p99, r_on.load.p99);
  EXPECT_EQ(r_off.load.max_latency, r_on.load.max_latency);
  EXPECT_DOUBLE_EQ(r_off.avg_cores, r_on.avg_cores);
  EXPECT_DOUBLE_EQ(r_off.energy_joules, r_on.energy_joules);
}

TEST(IntegrationTraceTest, SurgeRunYieldsBreakdownDecisionsAndViolators) {
  ExperimentConfig cfg = base_config();
  // Fig. 10-style micro-surges: 20x instantaneous rate for 2 ms every
  // second — enough pressure for SLO violations and controller responses.
  cfg.pattern_override = SpikePattern::surges(
      cfg.workload.base_rate_rps, 20.0, 2 * kMillisecond, 1 * kSecond,
      TimePoint::at(1500 * kMillisecond));
  cfg.trace_enabled = true;
  cfg.trace_sample = 0.05;  // rely on tail sampling for the violators
  cfg.trace_capacity = 1u << 16;

  const ExperimentResult r = run_experiment(cfg);
  ASSERT_TRUE(r.trace.has_value());
  const TraceReport& tr = *r.trace;

  EXPECT_GT(tr.slo, Duration::zero());
  EXPECT_GT(tr.stats.requests_kept, 0u);
  EXPECT_GT(tr.stats.slo_violators_kept, 0u);
  EXPECT_GT(tr.stats.decisions_recorded, 0u);

  // One breakdown row per service of the deployed task graph.
  const auto rows = latency_breakdown(tr);
  EXPECT_EQ(rows.size(), cfg.workload.spec.services.size());
  EXPECT_EQ(tr.containers.size(), cfg.workload.spec.services.size());
  for (const BreakdownRow& row : rows) {
    EXPECT_GT(row.visits, 0u);
    EXPECT_GT(row.avg_visit_us, 0.0);
  }

  // Exported JSON stays structurally valid on a big report too.
  const std::string json = chrome_trace_json(tr);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);

  // Critical paths of the slowest requests exist and attribute their
  // latency fully (exec + queue + net + gap == latency).
  const auto paths = critical_paths(tr, 3);
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_GE(paths[0].latency, paths[1].latency);
  for (const CriticalPath& p : paths) {
    EXPECT_EQ(p.exec_ns + p.queue_ns + p.net_ns + p.gap_ns, p.latency);
    EXPECT_FALSE(p.segments.empty());
  }
}

TEST(IntegrationTraceTest, HeadSamplingKeepsRoughlyTheRequestedFraction) {
  ExperimentConfig cfg = steady_traced_config();
  cfg.trace_sample = 0.2;
  cfg.trace_keep_violators = false;  // isolate head sampling
  const ExperimentResult r = run_experiment(cfg);
  ASSERT_TRUE(r.trace.has_value());
  const TraceStats& st = r.trace->stats;
  // With tail sampling off, only head-sampled requests are ever recorded,
  // so compare kept traces against every completion of the run.
  EXPECT_EQ(st.requests_discarded, 0u);
  const double kept_frac = static_cast<double>(st.requests_kept) /
                           static_cast<double>(r.load.completed_total);
  EXPECT_GT(kept_frac, 0.1);
  EXPECT_LT(kept_frac, 0.3);
}

TEST(IntegrationTraceTest, SampleZeroKeepsExactlyTheViolators) {
  // Head sampling 0 with tail sampling on: the sink records every request
  // and keeps exactly the SLO violators, and the decision audit is still
  // recorded in full.
  ExperimentConfig cfg = base_config();
  cfg.pattern_override = SpikePattern::surges(
      cfg.workload.base_rate_rps, 20.0, 2 * kMillisecond, 1 * kSecond,
      TimePoint::at(1500 * kMillisecond));
  cfg.trace_enabled = true;
  cfg.trace_sample = 0.0;
  cfg.trace_keep_violators = true;
  cfg.trace_capacity = 1u << 16;  // keep everything: no ring eviction

  const ExperimentResult r = run_experiment(cfg);
  ASSERT_TRUE(r.trace.has_value());
  const TraceReport& tr = *r.trace;
  EXPECT_GT(tr.stats.slo_violators_kept, 0u);
  EXPECT_EQ(tr.stats.requests_kept, tr.stats.slo_violators_kept);
  EXPECT_EQ(tr.stats.traces_evicted, 0u);
  EXPECT_GT(tr.stats.requests_discarded, 0u);
  EXPECT_GT(tr.stats.decisions_recorded, 0u);
  ASSERT_EQ(tr.traces.size(), tr.stats.requests_kept);
  for (const RequestTrace& t : tr.traces) {
    EXPECT_TRUE(t.slo_violation) << "request " << t.id();
    EXPECT_FALSE(t.head_sampled) << "request " << t.id();
    EXPECT_GT(t.latency, tr.slo) << "request " << t.id();
  }
}

TEST(IntegrationTraceTest, KeptTracesStoreAtMost16BytesPerSpan) {
  // Kept spans are stored encoded (SpanList), not as 64-byte TraceSpans.
  // Pinning the average on a traced 1-node readUserTimeline run keeps a
  // later change from widening the stored form again.
  ExperimentConfig cfg = base_config();
  cfg.workload = make_social_read_user_timeline();
  cfg.trace_enabled = true;
  cfg.trace_sample = 1.0;
  const ExperimentResult r = run_experiment(cfg);
  ASSERT_TRUE(r.trace.has_value());
  std::size_t spans = 0;
  std::size_t bytes = 0;
  for (const RequestTrace& t : r.trace->traces) {
    spans += t.spans.size();
    bytes += t.spans.bytes();
  }
  ASSERT_GT(spans, 10000u);
  EXPECT_LE(bytes, 16 * spans)
      << static_cast<double>(bytes) / static_cast<double>(spans)
      << " bytes per span";
}

struct AuditCase {
  ControllerKind controller;
  /// Source names the kind's decisions may carry; the first is its own.
  std::vector<std::string> sources;
};

// Names the case in test output (the default would dump the raw bytes,
// pointer included).
void PrintTo(const AuditCase& c, std::ostream* os) {
  *os << to_string(c.controller);
}

class ControllerAuditTest : public ::testing::TestWithParam<AuditCase> {
 protected:
  /// A 2-node CHAIN with one 1 s surge at 3x: long enough for Parties'
  /// 500 ms interval to see it.
  static ExperimentResult run_case() {
    ExperimentConfig cfg = base_config();
    cfg.controller = GetParam().controller;
    cfg.nodes = 2;
    cfg.surge_mult = 3.0;
    cfg.surge_len = 1 * kSecond;
    cfg.first_surge_offset = 500 * kMillisecond;
    cfg.trace_enabled = true;
    cfg.trace_sample = 0.0;  // the audit does not depend on request sampling
    return run_experiment(cfg);
  }
};

TEST_P(ControllerAuditTest, DecisionsCarryTheControllersSourceAndIds) {
  const ExperimentResult r = run_case();
  ASSERT_TRUE(r.trace.has_value());
  const TraceReport& tr = *r.trace;
  ASSERT_FALSE(tr.decisions.empty());
  EXPECT_EQ(tr.stats.decisions_recorded, tr.decisions.size());

  const std::vector<std::string>& sources = GetParam().sources;
  std::map<int, int> node_of;
  for (const TraceContainerInfo& c : tr.containers) node_of[c.id] = c.node;
  std::map<std::string, int> per_source;
  int fr_boosts = 0;
  for (const DecisionEvent& e : tr.decisions) {
    const auto it = node_of.find(e.container);
    ASSERT_NE(it, node_of.end()) << "unknown container " << e.container;
    EXPECT_EQ(e.node, it->second) << "container " << e.container;
    EXPECT_GE(e.node, 0);
    EXPECT_LT(e.node, 2);
    EXPECT_NE(std::find(sources.begin(), sources.end(), e.controller),
              sources.end())
        << "unexpected source " << e.controller;
    ++per_source[e.controller];
    if (std::strcmp(e.controller, "first-responder") == 0 &&
        e.kind == DecisionKind::kFreqBoost) {
      ++fr_boosts;
    }
  }
  EXPECT_GT(per_source[sources.front()], 0);
  if (std::find(sources.begin(), sources.end(), "first-responder") !=
      sources.end()) {
    EXPECT_GT(fr_boosts, 0);
  }
}

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// One golden line: the decision count and an FNV-1a of every field of
/// every decision, in report order.
std::string audit_digest(ControllerKind kind, const TraceReport& tr) {
  std::ostringstream all;
  for (const DecisionEvent& e : tr.decisions) {
    all << e.at.ns() << ' ' << to_string(e.kind) << ' ' << e.controller << ' '
        << e.node << ' ' << e.container << ' ' << e.amount << '\n';
  }
  char fnv[32];
  std::snprintf(fnv, sizeof fnv, "%016llx",
                static_cast<unsigned long long>(fnv1a64(all.str())));
  std::ostringstream line;
  line << to_string(kind) << " decisions=" << tr.decisions.size()
       << " fnv1a=" << fnv;
  return line.str();
}

/// The golden line of `kind` in tests/golden/controller_audit.txt.
std::string golden_audit_line(ControllerKind kind) {
  const std::string path = std::string(SG_GOLDEN_DIR) + "/controller_audit.txt";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  const std::string prefix = std::string(to_string(kind)) + " ";
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(prefix, 0) == 0) return line;
  }
  return "";
}

// Every controller's audit is pinned: a controller that stops recording an
// action (or records one it did not take) changes its line. There is no
// re-record switch: a new golden is a reviewed edit of the file.
TEST_P(ControllerAuditTest, DecisionsMatchTheRecordedAudit) {
  const ExperimentResult r = run_case();
  ASSERT_TRUE(r.trace.has_value());
  EXPECT_EQ(r.trace->stats.decisions_dropped, 0u);
  EXPECT_EQ(audit_digest(GetParam().controller, *r.trace),
            golden_audit_line(GetParam().controller));
}

INSTANTIATE_TEST_SUITE_P(
    AllControllers, ControllerAuditTest,
    ::testing::Values(
        AuditCase{ControllerKind::kParties, {"parties"}},
        AuditCase{ControllerKind::kCaladan, {"caladan"}},
        AuditCase{ControllerKind::kEscalator, {"escalator"}},
        AuditCase{ControllerKind::kSurgeGuard,
                  {"escalator", "first-responder"}},
        AuditCase{ControllerKind::kEscalatorMetricsOnly, {"escalator"}},
        AuditCase{ControllerKind::kEscalatorSensOnly, {"escalator"}},
        AuditCase{ControllerKind::kIdealOracle, {"ideal"}},
        AuditCase{ControllerKind::kCentralizedML, {"centralized-ml"}},
        AuditCase{ControllerKind::kMLPlusSurgeGuard,
                  {"centralized-ml", "escalator", "first-responder"}}),
    [](const ::testing::TestParamInfo<AuditCase>& param_info) {
      // Test names are alphanumeric: "Parties+Metrics" -> "PartiesMetrics".
      std::string name;
      for (const char c : std::string(to_string(param_info.param.controller))) {
        if (std::isalnum(static_cast<unsigned char>(c))) name += c;
      }
      return name;
    });

}  // namespace
}  // namespace sg
