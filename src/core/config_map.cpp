#include "core/config_map.hpp"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <type_traits>
#include <utility>

namespace sg {

namespace {

/// Why a value cannot be applied; empty when it was.
using Why = std::string;
using Value = const std::string&;

/// Parses `v` as the whole of `field`'s type and writes it. An integer
/// that does not fit the field is out of range, never truncated.
template <typename T>
Why read(Value v, T& field) {
  if constexpr (std::is_same_v<T, bool>) {
    const auto b = Config::to_bool(v);
    if (!b) return "expected true/false, 1/0, yes/no or on/off";
    field = *b;
  } else if constexpr (std::is_floating_point_v<T>) {
    const auto d = Config::to_double(v);
    if (!d) return "expected a number";
    field = *d;
  } else {
    const auto i = Config::to_int(v);
    if (!i) return "expected a 64-bit integer";
    if (!std::in_range<T>(*i)) return "out of range";
    field = static_cast<T>(*i);
  }
  return {};
}

/// A multiplier, rate or bandwidth.
Why read_positive(Value v, double& field) {
  if (Why why = read(v, field); !why.empty()) return why;
  return std::isfinite(field) && field > 0 ? "" : "must be finite and > 0";
}

constexpr const char* kNotADuration = "not a finite duration within range";

/// A duration given in seconds divided by `per_second` (1e3 for ms),
/// rounded to the nearest ns.
Why read_rounded(Value v, double per_second, Duration& field) {
  double x = 0.0;
  if (Why why = read(v, x); !why.empty()) return why;
  if (!Duration::fits(x / per_second * 1e9)) return kNotADuration;
  field = Duration::seconds(x / per_second);
  return {};
}

/// Either [membw] key enables the domain; the other keeps its default.
MemBwDomain::Params& membw(ExperimentConfig& out) {
  if (!out.membw) out.membw.emplace();
  return *out.membw;
}

/// One settable key: `apply` parses the raw value, checks its range and
/// writes its field, or returns why it cannot.
using Out = ExperimentConfig&;
struct KeyRow {
  const char* key;
  Why (*apply)(Value v, Out out);
};

/// Every key experiment_from_config (and sg_run) reads. Rows apply in this
/// order, so a row may build on an earlier one: rate_rps overrides the
/// selected workload's base rate, fault.plan checks its windows against
/// `nodes`, and the retry.* and drain_s rows override the defaults a fault
/// plan sets. An absent key leaves the ExperimentConfig (RpcRetryPolicy,
/// MemBwDomain::Params) default in place: those structs are the one source
/// of defaults.
constexpr KeyRow kKeys[] = {
    {"workload",
     [](Value v, Out out) -> Why {
       auto w = workload_by_name(v);
       if (!w) return "unknown workload";
       out.workload = std::move(*w);
       return {};
     }},
    {"controller",
     [](Value v, Out out) -> Why {
       constexpr std::pair<std::string_view, ControllerKind> kNames[] = {
           {"static", ControllerKind::kStatic},
           {"parties", ControllerKind::kParties},
           {"caladan", ControllerKind::kCaladan},
           {"caladanalgo", ControllerKind::kCaladan},
           {"escalator", ControllerKind::kEscalator},
           {"surgeguard", ControllerKind::kSurgeGuard},
           {"parties+metrics", ControllerKind::kEscalatorMetricsOnly},
           {"parties+sensitivity", ControllerKind::kEscalatorSensOnly},
           {"ideal", ControllerKind::kIdealOracle},
           {"centralized-ml", ControllerKind::kCentralizedML},
           {"ml", ControllerKind::kCentralizedML},
           {"ml+surgeguard", ControllerKind::kMLPlusSurgeGuard},
       };
       for (const auto& [name, kind] : kNames) {
         if (v == name) {
           out.controller = kind;
           return {};
         }
       }
       return "unknown controller";
     }},
    {"nodes",
     [](Value v, Out out) -> Why {
       if (Why why = read(v, out.nodes); !why.empty()) return why;
       return out.nodes >= 1 ? "" : "must be >= 1";
     }},
    {"warmup_s",
     [](Value v, Out out) -> Why {
       if (Why why = read_rounded(v, 1.0, out.warmup); !why.empty()) return why;
       return out.warmup >= Duration::zero() ? "" : "must be >= 0";
     }},
    {"duration_s",
     [](Value v, Out out) -> Why {
       if (Why why = read_rounded(v, 1.0, out.duration); !why.empty()) {
         return why;
       }
       return out.duration > Duration::zero() ? "" : "must be > 0";
     }},
    {"qos_mult",
     [](Value v, Out out) { return read_positive(v, out.qos_mult); }},
    {"target_mult",
     [](Value v, Out out) { return read_positive(v, out.target_mult); }},
    // The wrk2 -rate knob.
    {"rate_rps",
     [](Value v, Out out) {
       return read_positive(v, out.workload.base_rate_rps);
     }},
    {"seed", [](Value v, Out out) { return read(v, out.seed); }},
    {"surge.mult",
     [](Value v, Out out) { return read_positive(v, out.surge_mult); }},
    // A zero length means no surges; a negative one would mean the same
    // without saying so.
    {"surge.len_ms",
     [](Value v, Out out) -> Why {
       if (Why why = read_rounded(v, 1e3, out.surge_len); !why.empty()) {
         return why;
       }
       return out.surge_len >= Duration::zero() ? "" : "must be >= 0";
     }},
    // A zero period divides by zero and a negative one never ends the
    // surge schedule.
    {"surge.period_s",
     [](Value v, Out out) -> Why {
       if (Why why = read_rounded(v, 1.0, out.surge_period); !why.empty()) {
         return why;
       }
       return out.surge_period > Duration::zero() ? "" : "must be > 0";
     }},
    // The same spec string sg_run --fault-plan accepts.
    {"fault.plan",
     [](Value v, Out out) -> Why {
       Why why;
       const auto plan = FaultPlan::parse(v, &why);
       if (!plan) return why;
       // The plan cannot know the node count; a window on a node the
       // cluster lacks would abort the run when it is armed.
       for (const FaultWindow& w : plan->windows()) {
         if (w.node >= out.nodes) {
           return std::string(to_string(w.kind)) + " window targets node " +
                  std::to_string(w.node) + ", but nodes = " +
                  std::to_string(out.nodes);
         }
       }
       out.fault_plan = *plan;
       // A run with faults retries by default (a dropped packet would
       // otherwise strand its request forever) and drains for 5 s past the
       // measurement window so retried requests finish counting.
       if (!plan->empty()) {
         out.rpc_retry.enabled = true;
         out.drain = 5 * kSecond;
       }
       return {};
     }},
    {"retry.enabled",
     [](Value v, Out out) { return read(v, out.rpc_retry.enabled); }},
    {"retry.timeout_ms",
     [](Value v, Out out) {
       return read_rounded(v, 1e3, out.rpc_retry.timeout);
     }},
    {"retry.backoff",
     [](Value v, Out out) { return read(v, out.rpc_retry.backoff); }},
    {"retry.max",
     [](Value v, Out out) { return read(v, out.rpc_retry.max_retries); }},
    // The post-measurement drain window.
    {"drain_s",
     [](Value v, Out out) -> Why {
       if (Why why = read_rounded(v, 1.0, out.drain); !why.empty()) return why;
       return out.drain >= Duration::zero() ? "" : "must be >= 0";
     }},
    {"membw.node_bw_gbs",
     [](Value v, Out out) {
       return read_positive(v, membw(out).node_bw_gbs);
     }},
    {"membw.demand_per_core_gbs",
     [](Value v, Out out) {
       return read_positive(v, membw(out).demand_per_busy_core_gbs);
     }},
    {"ideal.detection_delay_ms",
     [](Value v, Out out) -> Why {
       if (Why why = read_rounded(v, 1e3, out.ideal_detection_delay);
           !why.empty()) {
         return why;
       }
       return out.ideal_detection_delay >= Duration::zero() ? ""
                                                            : "must be >= 0";
     }},
    {"trace.enabled",
     [](Value v, Out out) { return read(v, out.trace_enabled); }},
    {"trace.sample",
     [](Value v, Out out) -> Why {
       if (Why why = read(v, out.trace_sample); !why.empty()) return why;
       return out.trace_sample >= 0.0 && out.trace_sample <= 1.0
                  ? ""
                  : "must be in [0, 1]";
     }},
    {"trace.capacity",
     [](Value v, Out out) -> Why {
       if (Why why = read(v, out.trace_capacity); !why.empty()) return why;
       return out.trace_capacity > 0 ? "" : "must be positive";
     }},
    {"trace.keep_violators",
     [](Value v, Out out) { return read(v, out.trace_keep_violators); }},
    // The trace export path: sg_run reads it, any string will do.
    {"trace.out", [](Value, Out) { return Why{}; }},
};

bool has_row(const std::string& key) {
  return std::ranges::any_of(
      kKeys, [&key](const KeyRow& row) { return key == row.key; });
}

/// Whether `key` is service.<name>.expected_exec_metric_us or
/// .expected_time_from_start_us. The <name> part depends on the workload,
/// so only the shape is checked here.
bool is_target_key(std::string_view key) {
  constexpr std::string_view kPrefix = "service.";
  for (const std::string_view suffix :
       {".expected_exec_metric_us", ".expected_time_from_start_us"}) {
    if (key.size() > kPrefix.size() + suffix.size() &&
        key.starts_with(kPrefix) && key.ends_with(suffix)) {
      return true;
    }
  }
  return false;
}

/// A per-service target: <name> must be a service of the selected workload,
/// and the value a time that fits a Duration and is at least 1 ns
/// (apply_target_overrides rounds to the nearest ns; a 0 ns time-from-start
/// would make every packet a violation).
Why check_target(const std::string& key, Value v,
                 const WorkloadInfo& workload) {
  const std::string name = key.substr(8, key.rfind('.') - 8);
  const std::vector<ServiceSpec>& services = workload.spec.services;
  if (std::none_of(services.begin(), services.end(),
                   [&name](const ServiceSpec& s) { return s.name == name; })) {
    return "no service '" + name + "' in workload " + workload.action;
  }
  double us = 0.0;
  if (Why why = read(v, us); !why.empty()) return why;
  const double ns = us * 1e3;
  return ns >= 1 && Duration::fits(ns)
             ? ""
             : "must be at least 0.001 (1 ns) and within range";
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

std::optional<ExperimentConfig> experiment_from_config(const Config& cfg,
                                                       std::string* error) {
  const auto fail =
      [error](std::string msg) -> std::optional<ExperimentConfig> {
    if (error) *error = std::move(msg);
    return std::nullopt;
  };
  const auto invalid = [&cfg, &fail](const std::string& key, const Why& why) {
    return fail("invalid value '" + cfg.get_string(key) + "' for key '" +
                key + "': " + why);
  };

  // A key no row reads is an error, never a run with the default.
  const std::vector<std::string> keys = cfg.keys();
  for (const std::string& key : keys) {
    if (!has_row(key) && !is_target_key(key)) {
      return fail("unknown config key '" + key + "'");
    }
  }

  // ExperimentConfig has no default workload; a config file without one
  // runs CHAIN.
  ExperimentConfig out;
  out.workload = make_chain();
  for (const KeyRow& row : kKeys) {
    if (!cfg.has(row.key)) continue;
    if (Why why = row.apply(cfg.get_string(row.key), out); !why.empty()) {
      return invalid(row.key, why);
    }
  }
  for (const std::string& key : keys) {
    if (!is_target_key(key)) continue;
    if (Why why = check_target(key, cfg.get_string(key), out.workload);
        !why.empty()) {
      return invalid(key, why);
    }
  }

  // The policy as a whole, once the fault plan's default and every retry.*
  // key are in. A disabled policy is not checked.
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
  return out;
}

std::vector<std::string_view> config_keys() {
  std::vector<std::string_view> keys;
  for (const KeyRow& row : kKeys) keys.emplace_back(row.key);
  return keys;
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
    if (tfs) t.expected_time_from_start = Duration::seconds(*tfs / 1e6);
    ++overridden;
  }
  return overridden;
}

}  // namespace sg
