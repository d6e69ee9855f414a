#include "core/config_map.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "sample_config_util.hpp"

namespace sg {
namespace {

Config parse(const std::string& text) {
  auto cfg = Config::parse(text);
  EXPECT_TRUE(cfg.has_value());
  return *cfg;
}

// A present value that does not parse, or lies outside its key's range, is
// an error naming the key and the value, never the default.
void expect_rejected(const std::string& text, const std::string& key,
                     const std::string& value) {
  std::string err;
  EXPECT_FALSE(experiment_from_config(parse(text), &err)) << text;
  EXPECT_NE(err.find("'" + key + "'"), std::string::npos) << err;
  EXPECT_NE(err.find("'" + value + "'"), std::string::npos) << err;
}

TEST(ConfigMapTest, ControllerNames) {
  const std::pair<const char*, ControllerKind> names[] = {
      {"surgeguard", ControllerKind::kSurgeGuard},
      {"parties", ControllerKind::kParties},
      {"caladan", ControllerKind::kCaladan},
      {"escalator", ControllerKind::kEscalator},
      {"ideal", ControllerKind::kIdealOracle},
      {"centralized-ml", ControllerKind::kCentralizedML},
      {"ml+surgeguard", ControllerKind::kMLPlusSurgeGuard},
  };
  for (const auto& [name, kind] : names) {
    std::string err;
    const auto cfg = experiment_from_config(
        parse(std::string("controller = ") + name + "\n"), &err);
    ASSERT_TRUE(cfg.has_value()) << name << ": " << err;
    EXPECT_EQ(cfg->controller, kind) << name;
  }
  expect_rejected("controller = bogus\n", "controller", "bogus");
}

TEST(ConfigMapTest, DefaultsApply) {
  std::string err;
  const auto cfg = experiment_from_config(parse(""), &err);
  ASSERT_TRUE(cfg.has_value()) << err;
  EXPECT_EQ(cfg->workload.action, "chain");
  EXPECT_EQ(cfg->controller, ControllerKind::kSurgeGuard);
  EXPECT_EQ(cfg->nodes, 1);
  EXPECT_EQ(cfg->warmup, 5 * kSecond);
  EXPECT_EQ(cfg->duration, 30 * kSecond);
  EXPECT_DOUBLE_EQ(cfg->surge_mult, 1.75);
  EXPECT_FALSE(cfg->membw.has_value());
  EXPECT_TRUE(cfg->fault_plan.empty());
}

TEST(ConfigMapTest, FullConfigRoundTrip) {
  const auto cfg = experiment_from_config(parse(R"(
workload = readUserTimeline
controller = parties
nodes = 2
warmup_s = 3
duration_s = 12
qos_mult = 2.5
seed = 99
[surge]
mult = 1.5
len_ms = 500
period_s = 5
[fault]
plan = delay:start_ms=4000,len_ms=1000,extra_us=250
[membw]
node_bw_gbs = 48
demand_per_core_gbs = 5
)"),
                                          nullptr);
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->workload.action, "readUserTimeline");
  EXPECT_EQ(cfg->controller, ControllerKind::kParties);
  EXPECT_EQ(cfg->nodes, 2);
  EXPECT_EQ(cfg->warmup, 3 * kSecond);
  EXPECT_EQ(cfg->duration, 12 * kSecond);
  EXPECT_DOUBLE_EQ(cfg->qos_mult, 2.5);
  EXPECT_EQ(cfg->seed, 99u);
  EXPECT_DOUBLE_EQ(cfg->surge_mult, 1.5);
  EXPECT_EQ(cfg->surge_len, 500 * kMillisecond);
  EXPECT_EQ(cfg->surge_period, 5 * kSecond);
  ASSERT_EQ(cfg->fault_plan.size(), 1u);
  const FaultWindow& delay = cfg->fault_plan.windows()[0];
  EXPECT_EQ(delay.kind, FaultKind::kPacketDelay);
  EXPECT_EQ(delay.start, TimePoint::at(4 * kSecond));
  EXPECT_EQ(delay.end, TimePoint::at(5 * kSecond));
  EXPECT_EQ(delay.extra_delay, 250 * kMicrosecond);
  ASSERT_TRUE(cfg->membw.has_value());
  EXPECT_DOUBLE_EQ(cfg->membw->node_bw_gbs, 48.0);
  EXPECT_DOUBLE_EQ(cfg->membw->demand_per_busy_core_gbs, 5.0);
}

// Every settable key, each at a value its field would not hold without it,
// lands in that field and nowhere else.
TEST(ConfigMapTest, EveryKeyLandsInItsField) {
  const Config file = parse(R"(
# chain is also the default, but the service.chain-1 targets need it.
workload = chain
controller = parties
nodes = 3
warmup_s = 2.5
duration_s = 12
qos_mult = 2.5
target_mult = 3
rate_rps = 1234
seed = 99
drain_s = 7
[surge]
mult = 1.5
len_ms = 750
period_s = 4
[fault]
plan = freeze:node=2,start_ms=100,len_ms=50
[retry]
# The plan alone would turn retry on.
enabled = false
timeout_ms = 20.5
backoff = 1.5
max = 7
[membw]
node_bw_gbs = 48
demand_per_core_gbs = 5
[ideal]
detection_delay_ms = 0.25
[trace]
enabled = true
sample = 0.25
capacity = 512
keep_violators = false
# Read by sg_run, not by the ExperimentConfig.
out = pinned.json
[service.chain-1]
expected_exec_metric_us = 750
expected_time_from_start_us = 425.5
)");
  ExperimentConfig want;
  want.workload = make_chain();
  want.workload.base_rate_rps = 1234.0;
  want.controller = ControllerKind::kParties;
  want.nodes = 3;
  want.warmup = Duration::ms(2500);
  want.duration = 12 * kSecond;
  want.qos_mult = 2.5;
  want.target_mult = 3.0;
  want.seed = 99;
  want.drain = 7 * kSecond;
  want.surge_mult = 1.5;
  want.surge_len = 750 * kMillisecond;
  want.surge_period = 4 * kSecond;
  FaultWindow freeze;
  freeze.kind = FaultKind::kNodeFreeze;
  freeze.node = 2;
  freeze.start = TimePoint::at(100 * kMillisecond);
  freeze.end = TimePoint::at(150 * kMillisecond);
  want.fault_plan.add(freeze);
  want.rpc_retry.enabled = false;
  want.rpc_retry.timeout = Duration::us(20'500);
  want.rpc_retry.backoff = 1.5;
  want.rpc_retry.max_retries = 7;
  want.membw = MemBwDomain::Params{};
  want.membw->node_bw_gbs = 48.0;
  want.membw->demand_per_busy_core_gbs = 5.0;
  want.ideal_detection_delay = 250 * kMicrosecond;
  want.trace_enabled = true;
  want.trace_sample = 0.25;
  want.trace_capacity = 512;
  want.trace_keep_violators = false;

  std::string err;
  const auto got = experiment_from_config(file, &err);
  ASSERT_TRUE(got.has_value()) << err;
  EXPECT_TRUE(*got == want);

  TargetMap targets;
  EXPECT_EQ(apply_target_overrides(file, got->workload, &targets), 1);
  ASSERT_EQ(targets.per_container.size(), 1u);
  EXPECT_DOUBLE_EQ(targets.of(1).expected_exec_metric_ns, 750'000.0);
  EXPECT_EQ(targets.of(1).expected_time_from_start, Duration::ns(425'500));
}

// sample_config parses as shipped and with every commented example turned
// on.
TEST(ConfigMapTest, SampleConfigParses) {
  const std::string shipped = test::sample_config_text();
  std::string err;
  const auto plain = experiment_from_config(parse(shipped), &err);
  ASSERT_TRUE(plain.has_value()) << err;
  EXPECT_EQ(plain->workload.action, "readUserTimeline");
  EXPECT_FALSE(plain->trace_enabled);

  const Config full = parse(test::uncomment_examples(shipped));
  const auto all = experiment_from_config(full, &err);
  ASSERT_TRUE(all.has_value()) << err;
  EXPECT_DOUBLE_EQ(all->workload.base_rate_rps, 2000.0);
  EXPECT_TRUE(all->membw.has_value());
  EXPECT_EQ(all->fault_plan.size(), 3u);  // the later plan line wins
  EXPECT_TRUE(all->rpc_retry.enabled);
  EXPECT_TRUE(all->trace_enabled);
  EXPECT_EQ(full.get_string("trace.out"), "trace.json");
  TargetMap targets;
  EXPECT_EQ(apply_target_overrides(full, all->workload, &targets), 1);
}

// Every row of the key table has a line in sample_config, commented or not.
TEST(ConfigMapTest, SampleConfigDocumentsEveryKey) {
  const Config full =
      parse(test::uncomment_examples(test::sample_config_text()));
  const std::vector<std::string_view> keys = config_keys();
  ASSERT_FALSE(keys.empty());
  EXPECT_EQ(keys.front(), "workload");  // row order
  for (const std::string_view key : keys) {
    EXPECT_TRUE(full.has(std::string(key))) << key;
  }
}

TEST(ConfigMapTest, UnknownWorkloadFails) {
  std::string err;
  EXPECT_FALSE(experiment_from_config(parse("workload = nope"), &err));
  EXPECT_NE(err.find("unknown workload"), std::string::npos);
}

TEST(ConfigMapTest, UnknownControllerFails) {
  std::string err;
  EXPECT_FALSE(experiment_from_config(parse("controller = magic"), &err));
  EXPECT_NE(err.find("unknown controller"), std::string::npos);
}

TEST(ConfigMapTest, InvalidValuesFail) {
  expect_rejected("nodes = 0\n", "nodes", "0");
  expect_rejected("[surge]\nperiod_s = 0\n", "surge.period_s", "0");
  expect_rejected("[surge]\nperiod_s = -10\n", "surge.period_s", "-10");
  expect_rejected("warmup_s = -1\n", "warmup_s", "-1");
  expect_rejected("duration_s = 0\n", "duration_s", "0");
  expect_rejected("drain_s = -1\n", "drain_s", "-1");
  expect_rejected("[surge]\nlen_ms = -5\n", "surge.len_ms", "-5");
  expect_rejected("[ideal]\ndetection_delay_ms = -5\n",
                  "ideal.detection_delay_ms", "-5");
  expect_rejected("[membw]\nnode_bw_gbs = -5\n", "membw.node_bw_gbs", "-5");
  // A zero surge length stays valid: it turns surges off.
  const auto cfg =
      experiment_from_config(parse("[surge]\nlen_ms = 0\n"), nullptr);
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->surge_len, Duration::zero());
}

TEST(ConfigMapTest, MalformedIntegerRejected) {
  expect_rejected("nodes = 2x\n", "nodes", "2x");
}

TEST(ConfigMapTest, MalformedDoubleRejected) {
  expect_rejected("duration_s = two\n", "duration_s", "two");
}

TEST(ConfigMapTest, MalformedBoolRejected) {
  expect_rejected("[trace]\nenabled = ture\n", "trace.enabled", "ture");
}

TEST(ConfigMapTest, NonFiniteOrOverflowingDurationRejected) {
  expect_rejected("duration_s = inf\n", "duration_s", "inf");
  expect_rejected("warmup_s = nan\n", "warmup_s", "nan");
  expect_rejected("[surge]\nlen_ms = -1e300\n", "surge.len_ms", "-1e300");
  // The fault plan's times overflow the same way; its error names its own
  // key and value inside the plan.
  expect_rejected("[fault]\nplan = delay:start_ms=0,len_ms=1,extra_us=1e16\n",
                  "extra_us", "1e16");
  // Rejected whether or not retry is enabled: 1e26 ns overflows int64_t.
  expect_rejected("[retry]\ntimeout_ms = 1e20\n", "retry.timeout_ms", "1e20");
  expect_rejected("[ideal]\ndetection_delay_ms = nan\n",
                  "ideal.detection_delay_ms", "nan");
  // Just inside the range still parses: 9e18 ns is about 285 years.
  const auto cfg = experiment_from_config(parse("drain_s = 9e9\n"), nullptr);
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->drain, Duration::sec(9'000'000'000));
}

TEST(ConfigMapTest, OutOfRangeNumbersRejected) {
  // An integer that does not fit its field is not truncated.
  expect_rejected("nodes = 4294967297\n", "nodes", "4294967297");
  expect_rejected("[retry]\nmax = 4294967296\n", "retry.max", "4294967296");
  expect_rejected("seed = -1\n", "seed", "-1");
  // Nor is one beyond 64 bits clamped to the nearest end.
  expect_rejected("seed = 99999999999999999999999\n", "seed",
                  "99999999999999999999999");
  expect_rejected("[trace]\ncapacity = 99999999999999999999\n",
                  "trace.capacity", "99999999999999999999");
  // Rates and multipliers must be finite and positive.
  expect_rejected("rate_rps = nan\n", "rate_rps", "nan");
  expect_rejected("rate_rps = -5\n", "rate_rps", "-5");
  expect_rejected("target_mult = -1\n", "target_mult", "-1");
  expect_rejected("qos_mult = nan\n", "qos_mult", "nan");
  expect_rejected("qos_mult = inf\n", "qos_mult", "inf");
  expect_rejected("target_mult = 0\n", "target_mult", "0");
  // The edges of the ranges still parse.
  const auto cfg = experiment_from_config(
      parse("seed = 9223372036854775807\n[retry]\nmax = 2147483647\n"),
      nullptr);
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->seed, 9223372036854775807ull);
  EXPECT_EQ(cfg->rpc_retry.max_retries, 2147483647);
}

TEST(ConfigMapTest, FaultWindowOnAMissingNodeRejected) {
  expect_rejected(
      "nodes = 2\n[fault]\nplan = freeze:node=2,start_ms=0,len_ms=1\n",
      "fault.plan", "freeze:node=2,start_ms=0,len_ms=1");
  const auto cfg = experiment_from_config(
      parse("nodes = 2\n[fault]\nplan = freeze:node=1,start_ms=0,len_ms=1\n"),
      nullptr);
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->fault_plan.windows()[0].node, 1);
}

TEST(ConfigMapTest, NonFiniteOrNonPositiveSurgeAndMemBwRejected) {
  const std::pair<const char*, const char*> keys[] = {
      {"[surge]\nmult", "surge.mult"},
      {"[membw]\nnode_bw_gbs", "membw.node_bw_gbs"},
      {"[membw]\ndemand_per_core_gbs", "membw.demand_per_core_gbs"},
  };
  for (const auto& [line, key] : keys) {
    for (const char* value : {"inf", "nan", "-1", "0"}) {
      expect_rejected(std::string(line) + " = " + value + "\n", key, value);
    }
  }
}

TEST(ConfigMapTest, DemandKeyAloneEnablesMemBw) {
  const auto cfg =
      experiment_from_config(parse("[membw]\ndemand_per_core_gbs = 3\n"),
                             nullptr);
  ASSERT_TRUE(cfg.has_value());
  ASSERT_TRUE(cfg->membw.has_value());
  EXPECT_DOUBLE_EQ(cfg->membw->node_bw_gbs, MemBwDomain::Params{}.node_bw_gbs);
  EXPECT_DOUBLE_EQ(cfg->membw->demand_per_busy_core_gbs, 3.0);
}

TEST(ConfigMapTest, InvalidRetryPolicyRejected) {
  const auto rejects = [](const std::string& retry, const std::string& key) {
    std::string err;
    EXPECT_FALSE(experiment_from_config(
        parse("[retry]\nenabled = true\n" + retry), &err))
        << retry;
    EXPECT_NE(err.find(key), std::string::npos) << err;
  };
  rejects("backoff = nan\n", "retry.backoff");
  rejects("backoff = inf\n", "retry.backoff");
  rejects("backoff = 0.5\n", "retry.backoff");
  rejects("timeout_ms = 0\n", "retry.timeout_ms");
  rejects("max = -1\n", "retry.max");
  // 1 s * 10^20 does not fit in a Duration; 1 s * 10^9 does.
  rejects("timeout_ms = 1000\nbackoff = 10\nmax = 20\n", "retry.max");
  const auto cfg = experiment_from_config(
      parse("[retry]\nenabled = true\ntimeout_ms = 1000\nbackoff = 10\n"
            "max = 9\n"),
      nullptr);
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->rpc_retry.timeout_for_attempt(9), Duration::sec(1'000'000'000));
  // A disabled policy is not validated.
  EXPECT_TRUE(experiment_from_config(
      parse("[retry]\nenabled = false\nbackoff = nan\n"), nullptr));
}

constexpr const char* kDropPlan =
    "[fault]\nplan = drop:start_ms=1500,len_ms=1000,rate=0.1\n";

TEST(ConfigMapTest, FaultPlanEnablesRetryAndDrain) {
  std::string err;
  const auto cfg = experiment_from_config(parse(kDropPlan), &err);
  ASSERT_TRUE(cfg.has_value()) << err;
  EXPECT_FALSE(cfg->fault_plan.empty());
  EXPECT_TRUE(cfg->rpc_retry.enabled);
  EXPECT_EQ(cfg->drain, 5 * kSecond);
  // The policy the plan enables is validated like an explicit one.
  EXPECT_FALSE(experiment_from_config(
      parse(std::string(kDropPlan) + "[retry]\ntimeout_ms = 0\n"), &err));
  EXPECT_NE(err.find("retry.timeout_ms"), std::string::npos) << err;
}

TEST(ConfigMapTest, ExplicitRetryAndDrainKeysWin) {
  std::string err;
  const auto cfg = experiment_from_config(
      parse("drain_s = 0\n" + std::string(kDropPlan) +
            "[retry]\nenabled = false\n"),
      &err);
  ASSERT_TRUE(cfg.has_value()) << err;
  EXPECT_FALSE(cfg->fault_plan.empty());
  EXPECT_FALSE(cfg->rpc_retry.enabled);
  EXPECT_EQ(cfg->drain, Duration::zero());
}

TEST(ConfigMapTest, NoFaultPlanKeepsRetryAndDrainDefaults) {
  const ExperimentConfig defaults;
  for (const char* text : {"", "[fault]\nplan =\n"}) {
    std::string err;
    const auto cfg = experiment_from_config(parse(text), &err);
    ASSERT_TRUE(cfg.has_value()) << err;
    EXPECT_TRUE(cfg->fault_plan.empty()) << text;
    EXPECT_FALSE(cfg->rpc_retry.enabled) << text;
    EXPECT_EQ(cfg->drain, defaults.drain) << text;
  }
}

TEST(ConfigMapTest, RateOverride) {
  const auto cfg =
      experiment_from_config(parse("workload = chain\nrate_rps = 5000"), nullptr);
  ASSERT_TRUE(cfg.has_value());
  EXPECT_DOUBLE_EQ(cfg->workload.base_rate_rps, 5000.0);
}

TEST(ConfigMapTest, TargetOverrides) {
  const WorkloadInfo w = make_chain();
  TargetMap targets;
  for (int i = 0; i < 5; ++i) {
    targets.per_container[i] = ContainerTargets{1000.0, Duration::ns(1000)};
  }
  const Config cfg = parse(R"(
[service.chain-2]
expected_exec_metric_us = 750
expected_time_from_start_us = 425
)");
  const int overridden = apply_target_overrides(cfg, w, &targets);
  EXPECT_EQ(overridden, 1);
  EXPECT_DOUBLE_EQ(targets.of(2).expected_exec_metric_ns, 750'000.0);
  EXPECT_EQ(targets.of(2).expected_time_from_start, Duration::ns(425'000));
  // Others untouched.
  EXPECT_DOUBLE_EQ(targets.of(1).expected_exec_metric_ns, 1000.0);
}

TEST(ConfigMapTest, DurationsRoundToTheNearestNanosecond) {
  // Each value times its unit lands just below a whole ns in double:
  // 17102.888956 ms is 17102888955.99... ns and 1.005 us 1004.99... ns.
  const auto cfg = experiment_from_config(
      parse("[retry]\ntimeout_ms = 17102.888956\n"
            "[ideal]\ndetection_delay_ms = 17102.888956\n"),
      nullptr);
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->rpc_retry.timeout, Duration::ns(17'102'888'956));
  EXPECT_EQ(cfg->ideal_detection_delay, Duration::ns(17'102'888'956));

  TargetMap targets;
  apply_target_overrides(
      parse("[service.chain-1]\nexpected_time_from_start_us = 1.005\n"),
      make_chain(), &targets);
  EXPECT_EQ(targets.of(1).expected_time_from_start, Duration::ns(1005));
}

TEST(ConfigMapTest, PartialTargetOverride) {
  const WorkloadInfo w = make_chain();
  TargetMap targets;
  targets.per_container[0] = ContainerTargets{1000.0, Duration::ns(2000)};
  const Config cfg = parse("[service.chain-0]\nexpected_exec_metric_us = 9\n");
  apply_target_overrides(cfg, w, &targets);
  EXPECT_DOUBLE_EQ(targets.of(0).expected_exec_metric_ns, 9000.0);
  EXPECT_EQ(targets.of(0).expected_time_from_start, Duration::ns(2000));  // kept
}

TEST(ConfigMapTest, MalformedTargetOverrideRejected) {
  // A service the workload lacks, or a value that is not a time of at
  // least 1 ns within a Duration's range, is an error naming key and value.
  const std::pair<const char*, const char*> cases[] = {
      {"[service.no-such-service]\nexpected_exec_metric_us = 5\n",
       "'5' for key 'service.no-such-service.expected_exec_metric_us'"},
      {"[service.chain-1]\nexpected_time_from_start_us = nan\n",
       "'nan' for key 'service.chain-1.expected_time_from_start_us'"},
      {"[service.chain-1]\nexpected_time_from_start_us = -5\n",
       "'-5' for key 'service.chain-1.expected_time_from_start_us'"},
      {"[service.chain-1]\nexpected_time_from_start_us = 1e300\n",
       "'1e300' for key 'service.chain-1.expected_time_from_start_us'"},
      {"[service.chain-1]\nexpected_exec_metric_us = 0\n",
       "'0' for key 'service.chain-1.expected_exec_metric_us'"},
      // 0.4 ns would round to a 0 ns time-from-start.
      {"[service.chain-1]\nexpected_time_from_start_us = 0.0004\n",
       "'0.0004' for key 'service.chain-1.expected_time_from_start_us'"},
  };
  for (const auto& [text, what] : cases) {
    std::string err;
    const auto out = experiment_from_config(
        parse(std::string("workload = chain\n") + text), &err);
    EXPECT_FALSE(out.has_value()) << text;
    EXPECT_NE(err.find(what), std::string::npos) << err;
  }
  // A well-formed override of a real service passes.
  std::string err;
  EXPECT_TRUE(experiment_from_config(
                  parse("workload = chain\n[service.chain-1]\n"
                        "expected_exec_metric_us = 5\n"
                        "expected_time_from_start_us = 40\n"),
                  &err)
                  .has_value())
      << err;
}

TEST(ConfigMapTest, MisspelledKeyIsFlaggedAsUnknown) {
  // The classic typo: retry.timout_s instead of retry.timeout_ms. And
  // stale keys: sim.shards no longer exists (the event loop is serial),
  // and network-latency surges are fault.plan delay windows, not [netdelay].
  const Config cfg = parse(R"(
workload = chain
[netdelay]
extra_us = 250
len_ms = 1000
period_s = 8
[retry]
timout_s = 5
[sim]
shards = 2
)");
  // An unknown key is an error naming it, never a run with the default;
  // the first in sorted order is reported.
  std::string err;
  EXPECT_FALSE(experiment_from_config(cfg, &err).has_value());
  EXPECT_NE(err.find("unknown config key 'netdelay.extra_us'"),
            std::string::npos)
      << err;
  for (const char* key : {"netdelay.extra_us", "netdelay.len_ms",
                          "netdelay.period_s", "retry.timout_s",
                          "sim.shards"}) {
    Config one = parse("workload = chain\n");
    one.set(key, "5");
    EXPECT_FALSE(experiment_from_config(one, &err).has_value()) << key;
    EXPECT_NE(err.find(std::string("unknown config key '") + key + "'"),
              std::string::npos)
        << err;
  }
}

TEST(ConfigMapTest, ValidKeysAreNotFlagged) {
  const Config cfg = parse(R"(
workload = chain
controller = surgeguard
rate_rps = 3000
[surge]
mult = 1.5
[retry]
enabled = true
timeout_ms = 20
[trace]
enabled = true
sample = 0.5
capacity = 1024
keep_violators = false
out = /tmp/t.json
[service.chain-0]
expected_exec_metric_us = 10
expected_time_from_start_us = 20
)");
  std::string err;
  EXPECT_TRUE(experiment_from_config(cfg, &err).has_value()) << err;
  // service.<name>. still requires a recognized suffix.
  const Config bad = parse("[service.chain-0]\nexec_metric = 1\n");
  EXPECT_FALSE(experiment_from_config(bad, &err).has_value());
  EXPECT_NE(err.find("unknown config key 'service.chain-0.exec_metric'"),
            std::string::npos)
      << err;
}

TEST(ConfigMapTest, TraceKeysParse) {
  const auto cfg = experiment_from_config(parse(R"(
[trace]
enabled = true
sample = 0.25
capacity = 512
keep_violators = false
)"),
                                          nullptr);
  ASSERT_TRUE(cfg.has_value());
  EXPECT_TRUE(cfg->trace_enabled);
  EXPECT_DOUBLE_EQ(cfg->trace_sample, 0.25);
  EXPECT_EQ(cfg->trace_capacity, 512u);
  EXPECT_FALSE(cfg->trace_keep_violators);
  // Defaults: tracing off, sample everything, keep violators.
  const auto plain = experiment_from_config(parse(""), nullptr);
  ASSERT_TRUE(plain.has_value());
  EXPECT_FALSE(plain->trace_enabled);
  EXPECT_DOUBLE_EQ(plain->trace_sample, 1.0);
  EXPECT_TRUE(plain->trace_keep_violators);
}

TEST(ConfigMapTest, InvalidTraceValuesFail) {
  expect_rejected("[trace]\nsample = 1.5\n", "trace.sample", "1.5");
  expect_rejected("[trace]\nsample = -0.1\n", "trace.sample", "-0.1");
  expect_rejected("[trace]\nsample = nan\n", "trace.sample", "nan");
  expect_rejected("[trace]\ncapacity = 0\n", "trace.capacity", "0");
}

TEST(ConfigMapTest, ConfiguredExperimentRuns) {
  // End-to-end: a config-built experiment must run and produce results.
  const auto cfg = experiment_from_config(parse(R"(
workload = chain
controller = static
warmup_s = 1
duration_s = 2
[surge]
len_ms = 0
)"),
                                          nullptr);
  ASSERT_TRUE(cfg.has_value());
  const ExperimentResult r = run_experiment(*cfg);
  EXPECT_GT(r.load.completed, 0u);
}

}  // namespace
}  // namespace sg
