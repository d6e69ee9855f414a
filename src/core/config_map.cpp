#include "core/config_map.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <string_view>
#include <type_traits>
#include <utility>

namespace sg {

namespace {

enum class KeyType { kString, kInt, kDouble, kBool };

/// Exact keys experiment_from_config (and sg_run) consume, grouped by the
/// type their value must parse as. Kept in sync with the header's
/// "Recognized keys" comment; core_config_map_test exercises the
/// misspelling path.
const char* const kStringKeys[] = {"workload", "controller", "fault.plan",
                                   "trace.out"};
const char* const kIntKeys[] = {"nodes", "seed", "retry.max",
                                "trace.capacity"};
const char* const kBoolKeys[] = {"retry.enabled", "trace.enabled",
                                 "trace.keep_violators"};
const char* const kDoubleKeys[] = {
    "warmup_s", "duration_s", "qos_mult", "target_mult", "rate_rps",
    "surge.mult", "surge.len_ms", "surge.period_s",
    "retry.timeout_ms", "retry.backoff", "drain_s",
    "membw.node_bw_gbs", "membw.demand_per_core_gbs",
    "ideal.detection_delay_ms", "trace.sample",
};

template <std::size_t N>
bool contains(const char* const (&keys)[N], const std::string& key) {
  return std::find(std::begin(keys), std::end(keys), key) != std::end(keys);
}

/// Type of a recognized key; nullopt for keys no consumer reads.
std::optional<KeyType> key_type(const std::string& key) {
  if (contains(kStringKeys, key)) return KeyType::kString;
  if (contains(kIntKeys, key)) return KeyType::kInt;
  if (contains(kBoolKeys, key)) return KeyType::kBool;
  if (contains(kDoubleKeys, key)) return KeyType::kDouble;
  // service.<name>.expected_exec_metric_us / .expected_time_from_start_us:
  // the <name> part is workload-dependent, so validate the shape only.
  constexpr std::string_view kServicePrefix = "service.";
  if (key.compare(0, kServicePrefix.size(), kServicePrefix) == 0) {
    const auto ends_with = [&](std::string_view suffix) {
      return key.size() > kServicePrefix.size() + suffix.size() &&
             key.compare(key.size() - suffix.size(), suffix.size(),
                         suffix) == 0;
    };
    if (ends_with(".expected_exec_metric_us") ||
        ends_with(".expected_time_from_start_us")) {
      return KeyType::kDouble;
    }
  }
  return std::nullopt;
}

/// Whether the value of a recognized key parses as its type.
bool parses_as(const Config& cfg, const std::string& key, KeyType type) {
  switch (type) {
    case KeyType::kString: return true;
    case KeyType::kInt: return cfg.try_get_int(key).has_value();
    case KeyType::kDouble: return cfg.try_get_double(key).has_value();
    case KeyType::kBool: return cfg.try_get_bool(key).has_value();
  }
  return false;
}

/// Whether timeout * backoff^max_retries, the longest timeout the policy
/// arms, fits in a Duration; multiplied as RpcRetryPolicy does.
bool longest_timeout_fits(const RpcRetryPolicy& retry) {
  double t = static_cast<double>(retry.timeout.ns());
  for (int i = 0; i < retry.max_retries; ++i) {
    t *= retry.backoff;
    if (!Duration::fits(t)) return false;
  }
  return true;
}

}  // namespace

std::optional<ControllerKind> controller_from_string(const std::string& name) {
  if (name == "static") return ControllerKind::kStatic;
  if (name == "parties") return ControllerKind::kParties;
  if (name == "caladan" || name == "caladanalgo") return ControllerKind::kCaladan;
  if (name == "escalator") return ControllerKind::kEscalator;
  if (name == "surgeguard") return ControllerKind::kSurgeGuard;
  if (name == "parties+metrics") return ControllerKind::kEscalatorMetricsOnly;
  if (name == "parties+sensitivity") return ControllerKind::kEscalatorSensOnly;
  if (name == "ideal") return ControllerKind::kIdealOracle;
  if (name == "centralized-ml" || name == "ml") return ControllerKind::kCentralizedML;
  if (name == "ml+surgeguard") return ControllerKind::kMLPlusSurgeGuard;
  return std::nullopt;
}

std::optional<ExperimentConfig> experiment_from_config(const Config& cfg,
                                                       std::string* error) {
  auto fail = [&](const std::string& msg) -> std::optional<ExperimentConfig> {
    if (error) *error = msg;
    return std::nullopt;
  };

  ExperimentConfig out;

  // A key no consumer reads is an error, never a run with the default.
  if (const auto unknown = unknown_config_keys(cfg); !unknown.empty()) {
    return fail("unknown config key '" + unknown.front() + "'");
  }
  // A present value that does not parse is an error, never the default.
  for (const std::string& key : cfg.keys()) {
    const auto type = key_type(key);
    if (type && !parses_as(cfg, key, *type)) {
      return fail("invalid value '" + cfg.get_string(key) + "' for key '" +
                  key + "'");
    }
  }

  // Every present value parsed above. A key that is absent leaves the
  // ExperimentConfig (or RpcRetryPolicy, MemBwDomain::Params) default in
  // place: those structs are the one source of defaults. The setters return
  // false, with range_error set, for a value their field cannot hold.
  std::string range_error;
  const auto invalid = [&cfg, &range_error](const char* key,
                                            const char* why) {
    range_error = "invalid value '" + cfg.get_string(key) + "' for key '" +
                  key + "': " + why;
    return false;
  };
  const auto set = [&](const char* key, auto& field) {
    using T = std::remove_reference_t<decltype(field)>;
    if constexpr (std::is_same_v<T, bool>) {
      if (const auto v = cfg.try_get_bool(key)) field = *v;
    } else if constexpr (std::is_floating_point_v<T>) {
      if (const auto v = cfg.try_get_double(key)) field = *v;
    } else {
      if (const auto v = cfg.try_get_int(key)) {
        if (!std::in_range<T>(*v)) return invalid(key, "out of range");
        field = static_cast<T>(*v);
      }
    }
    return true;
  };
  // A range error on a value that parsed: the ExperimentConfig is refused.
  const auto reject = [&](const char* key, const char* why) {
    invalid(key, why);
    return fail(range_error);
  };
  const auto out_of_range = [&invalid](const char* key) {
    return invalid(key, "not a finite duration within range");
  };
  // A duration given in seconds divided by `per_second` (1e3 for ms),
  // rounded to the nearest ns.
  const auto set_rounded = [&](const char* key, double per_second,
                               Duration& field) {
    if (const auto v = cfg.try_get_double(key)) {
      if (!Duration::fits(*v / per_second * 1e9)) return out_of_range(key);
      field = Duration::seconds(*v / per_second);
    }
    return true;
  };
  // A duration given in units of `unit_ns` ns, truncated to whole ns.
  const auto set_truncated = [&](const char* key, double unit_ns,
                                 Duration& field) {
    if (const auto v = cfg.try_get_double(key)) {
      if (!Duration::fits(*v * unit_ns)) return out_of_range(key);
      field = Duration{static_cast<std::int64_t>(*v * unit_ns)};
    }
    return true;
  };

  // ExperimentConfig has no default workload; a config file without one
  // runs CHAIN.
  const std::string workload = cfg.get_string("workload", "chain");
  bool found = false;
  for (const WorkloadInfo& w : workload_catalog()) {
    if (workload == w.action || workload == w.family ||
        workload == w.family + "." + w.action) {
      out.workload = w;
      found = true;
      break;
    }
  }
  if (!found) return fail("unknown workload: " + workload);

  // Per-service target overrides: <name> must be a service of the selected
  // workload, and the value a time that fits a Duration and is at least
  // 1 ns (apply_target_overrides truncates to whole ns; a 0 ns
  // time-from-start would make every packet a violation).
  for (const std::string& key : cfg.keys()) {
    if (key.rfind("service.", 0) != 0 || !key_type(key)) continue;
    const std::string name = key.substr(8, key.rfind('.') - 8);
    const std::vector<ServiceSpec>& services = out.workload.spec.services;
    if (std::none_of(services.begin(), services.end(),
                     [&](const ServiceSpec& s) { return s.name == name; })) {
      const std::string why =
          "no service '" + name + "' in workload " + workload;
      return reject(key.c_str(), why.c_str());
    }
    const double ns = *cfg.try_get_double(key) * 1e3;
    if (!(ns >= 1 && Duration::fits(ns))) {
      return reject(key.c_str(),
                    "must be at least 0.001 (1 ns) and within range");
    }
  }

  if (cfg.has("controller")) {
    const std::string controller = cfg.get_string("controller");
    const auto kind = controller_from_string(controller);
    if (!kind) return fail("unknown controller: " + controller);
    out.controller = *kind;
  }

  if (!set("nodes", out.nodes)) return fail(range_error);
  if (out.nodes < 1) return reject("nodes", "must be >= 1");

  if (!set_rounded("warmup_s", 1.0, out.warmup) ||
      !set_rounded("duration_s", 1.0, out.duration)) {
    return fail(range_error);
  }
  if (out.warmup < Duration::zero()) return reject("warmup_s", "must be >= 0");
  if (out.duration <= Duration::zero()) {
    return reject("duration_s", "must be > 0");
  }

  // Multipliers, memory bandwidths and the base-rate override (the wrk2
  // -rate knob).
  for (const char* key :
       {"qos_mult", "target_mult", "rate_rps", "surge.mult",
        "membw.node_bw_gbs", "membw.demand_per_core_gbs"}) {
    const auto v = cfg.try_get_double(key);
    if (v && !(std::isfinite(*v) && *v > 0)) {
      return reject(key, "must be finite and > 0");
    }
  }
  set("qos_mult", out.qos_mult);
  set("target_mult", out.target_mult);
  set("rate_rps", out.workload.base_rate_rps);
  if (!set("seed", out.seed)) return fail(range_error);

  set("surge.mult", out.surge_mult);
  if (!set_rounded("surge.len_ms", 1e3, out.surge_len) ||
      !set_rounded("surge.period_s", 1.0, out.surge_period)) {
    return fail(range_error);
  }

  // Chaos: deterministic fault schedule + RPC retransmission policy. The
  // fault.plan value is the same spec string sg_run --fault-plan accepts.
  if (cfg.has("fault.plan")) {
    std::string fault_error;
    const auto plan = FaultPlan::from_config(cfg, &fault_error);
    if (!plan) return fail(fault_error);
    // The plan cannot know the node count; a window on a node the cluster
    // lacks would abort the run when it is armed.
    for (const FaultWindow& w : plan->windows()) {
      if (w.node >= out.nodes) {
        const std::string why = std::string(to_string(w.kind)) +
                                " window targets node " +
                                std::to_string(w.node) + ", but nodes = " +
                                std::to_string(out.nodes);
        return reject("fault.plan", why.c_str());
      }
    }
    out.fault_plan = *plan;
  }
  // A run with faults retries by default (a dropped packet would otherwise
  // strand its request forever) and drains for 5 s past the measurement
  // window so retried requests finish counting. Explicit retry.enabled and
  // drain_s keys still win: the setters below overwrite these defaults.
  if (!out.fault_plan.empty()) {
    out.rpc_retry.enabled = true;
    out.drain = 5 * kSecond;
  }
  set("retry.enabled", out.rpc_retry.enabled);
  if (!set_truncated("retry.timeout_ms", 1e6, out.rpc_retry.timeout)) {
    return fail(range_error);
  }
  set("retry.backoff", out.rpc_retry.backoff);
  if (!set("retry.max", out.rpc_retry.max_retries)) return fail(range_error);
  if (out.rpc_retry.enabled) {
    const RpcRetryPolicy& retry = out.rpc_retry;
    if (retry.timeout <= Duration::zero() || !std::isfinite(retry.backoff) ||
        retry.backoff < 1.0 || retry.max_retries < 0) {
      return fail("invalid retry policy: retry.timeout_ms must be > 0, "
                  "retry.backoff finite and >= 1, retry.max >= 0");
    }
    if (!longest_timeout_fits(retry)) {
      return fail("invalid retry policy: the longest timeout, retry.timeout_ms"
                  " * retry.backoff^retry.max, does not fit in a duration");
    }
  }
  if (!set_rounded("drain_s", 1.0, out.drain)) return fail(range_error);
  if (out.drain < Duration::zero()) return reject("drain_s", "must be >= 0");

  // Either [membw] key enables the domain; the other keeps its default.
  if (cfg.has("membw.node_bw_gbs") || cfg.has("membw.demand_per_core_gbs")) {
    MemBwDomain::Params bw;
    set("membw.node_bw_gbs", bw.node_bw_gbs);
    set("membw.demand_per_core_gbs", bw.demand_per_busy_core_gbs);
    out.membw = bw;
  }

  if (!set_truncated("ideal.detection_delay_ms", 1e6,
                     out.ideal_detection_delay)) {
    return fail(range_error);
  }

  set("trace.enabled", out.trace_enabled);
  set("trace.sample", out.trace_sample);
  if (!(out.trace_sample >= 0.0 && out.trace_sample <= 1.0)) {
    return reject("trace.sample", "must be in [0, 1]");
  }
  if (const auto cap = cfg.try_get_int("trace.capacity")) {
    if (*cap <= 0) return reject("trace.capacity", "must be positive");
    out.trace_capacity = static_cast<std::size_t>(*cap);
  }
  set("trace.keep_violators", out.trace_keep_violators);
  return out;
}

std::vector<std::string> unknown_config_keys(const Config& cfg) {
  std::vector<std::string> unknown;
  for (const std::string& key : cfg.keys()) {
    if (!key_type(key)) unknown.push_back(key);
  }
  return unknown;
}

int apply_target_overrides(const Config& cfg, const WorkloadInfo& workload,
                           TargetMap* targets) {
  int overridden = 0;
  for (std::size_t i = 0; i < workload.spec.services.size(); ++i) {
    const std::string prefix =
        "service." + workload.spec.services[i].name + ".";
    const auto exec = cfg.try_get_double(prefix + "expected_exec_metric_us");
    const auto tfs =
        cfg.try_get_double(prefix + "expected_time_from_start_us");
    if (!exec && !tfs) continue;
    ContainerTargets& t = targets->per_container[static_cast<int>(i)];
    if (exec) t.expected_exec_metric_ns = *exec * 1e3;
    if (tfs) {
      t.expected_time_from_start =
          Duration{static_cast<std::int64_t>(*tfs * 1e3)};
    }
    ++overridden;
  }
  return overridden;
}

}  // namespace sg
