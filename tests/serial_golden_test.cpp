// Serial golden gate: pinned multi-node runs must reproduce a committed
// digest exactly. The simbench fingerprints pin a traced 1-node run, an
// untraced 8-node run and a 2-node packet-loss run under Parties; these two
// configs reach what they do not — a traced 4-node CHAIN under SurgeGuard,
// and the same run under the full chaos plan (drop/dup/slow/freeze/stall
// and three network-delay windows, RPC retry, drain).
//
// Each digest holds the load-side results, the simulation-wide counters,
// the accumulated FP metrics as %a hex floats (exact bits), the fault
// footprint, and a 64-bit FNV-1a of the Chrome-trace export. Any behaviour
// change shows up as a diff against tests/golden/; the failure message
// prints the full actual digest. There is no re-record switch: a new
// golden is a reviewed edit of the file.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/assert.hpp"
#include "core/experiment.hpp"
#include "trace/export.hpp"

namespace sg {
namespace {

ExperimentConfig chain4_config() {
  ExperimentConfig cfg;
  cfg.workload = make_chain();
  cfg.controller = ControllerKind::kSurgeGuard;
  cfg.nodes = 4;
  cfg.warmup = 1 * kSecond;
  cfg.duration = 4 * kSecond;
  cfg.seed = 20250807;
  cfg.surge_mult = 2.0;
  cfg.surge_len = 500 * kMillisecond;
  cfg.surge_period = 2 * kSecond;
  cfg.trace_enabled = true;
  cfg.trace_sample = 0.5;
  cfg.trace_capacity = 1u << 15;
  return cfg;
}

ExperimentConfig chain4_chaos_config() {
  ExperimentConfig cfg = chain4_config();
  std::string err;
  const auto plan = FaultPlan::parse(
      "drop:start_ms=1500,len_ms=800,rate=0.05;"
      "dup:start_ms=2000,len_ms=600,rate=0.05;"
      "slow:node=1,start_ms=2500,len_ms=400,factor=0.3;"
      "freeze:node=2,start_ms=3200,len_ms=200;"
      "stall:start_ms=1800,len_ms=500;"
      "delay:start_ms=2000,len_ms=300,extra_us=40;"
      "delay:start_ms=3000,len_ms=300,extra_us=40;"
      "delay:start_ms=4000,len_ms=300,extra_us=40",
      &err);
  SG_ASSERT_MSG(plan.has_value(), err.c_str());
  cfg.fault_plan = *plan;
  cfg.rpc_retry.enabled = true;
  cfg.drain = 2 * kSecond;
  return cfg;
}

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex_float(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::string digest(const ExperimentResult& r) {
  std::ostringstream os;
  const auto i64 = [](Duration d) { return static_cast<long long>(d.ns()); };
  os << "vv_ms_s " << hex_float(r.load.violation_volume_ms_s) << '\n'
     << "violation_frac " << hex_float(r.load.violation_duration_frac) << '\n'
     << "issued " << r.load.issued << '\n'
     << "completed " << r.load.completed << '\n'
     << "p50_ns " << i64(r.load.p50) << '\n'
     << "p98_ns " << i64(r.load.p98) << '\n'
     << "p99_ns " << i64(r.load.p99) << '\n'
     << "max_ns " << i64(r.load.max_latency) << '\n'
     << "mean_ns " << hex_float(r.load.mean_latency_ns) << '\n'
     << "events_processed " << r.events_processed << '\n'
     << "fr_packets " << r.fr_packets << '\n'
     << "fr_violations " << r.fr_violations << '\n'
     << "fr_boosts " << r.fr_boosts << '\n'
     << "avg_cores " << hex_float(r.avg_cores) << '\n'
     << "energy_joules " << hex_float(r.energy_joules) << '\n'
     << "faults " << r.faults.digest() << '\n'
     << "app_rpc_retries " << r.app_rpc_retries << '\n'
     << "app_rpc_failures " << r.app_rpc_failures << '\n'
     << "controller_ticks_stalled " << r.controller_ticks_stalled << '\n';
  char fnv[32];
  std::snprintf(fnv, sizeof fnv, "%016llx",
                static_cast<unsigned long long>(
                    fnv1a64(chrome_trace_json(*r.trace))));
  os << "trace_fnv1a " << fnv << '\n';
  return os.str();
}

std::string read_golden(const std::string& name) {
  const std::string path = std::string(SG_GOLDEN_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void expect_golden(const ExperimentConfig& cfg, const std::string& name) {
  const ExperimentResult r = run_experiment(cfg);
  ASSERT_GT(r.load.completed, 0u);
  ASSERT_TRUE(r.trace.has_value());
  const std::string actual = digest(r);
  EXPECT_EQ(actual, read_golden(name))
      << "actual digest for tests/golden/" << name << ":\n"
      << actual;
}

TEST(SerialGoldenTest, Chain4SurgeTraced) {
  expect_golden(chain4_config(), "serial_chain4_surge.txt");
}

TEST(SerialGoldenTest, Chain4ChaosDelayWindow) {
  expect_golden(chain4_chaos_config(), "serial_chain4_chaos.txt");
}

}  // namespace
}  // namespace sg
