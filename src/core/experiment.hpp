// Experiment harness: builds a full simulated testbed (cluster + network +
// application + load generator + per-node controllers), runs it, and
// reports the paper's measurements (violation volume, tail latency, average
// cores used, energy).
//
// The setup mirrors the paper's protocol (§V + artifact appendix):
//   * per-service parameters (expectedExecMetric, expectedTimeFromStart)
//     profiled at low load and set to 2x the measured values;
//   * base rate "slightly below the knee" — encoded in the calibrated
//     workload catalog;
//   * the application initialized to ~2/3 of the node's allocatable cores,
//     the rest available on demand;
//   * surges injected as rate spikes of configurable magnitude/duration.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "app/workloads.hpp"
#include "controllers/escalator.hpp"
#include "controllers/targets.hpp"
#include "fault/fault_injector.hpp"
#include "sim/timeline.hpp"
#include "trace/trace.hpp"
#include "workload/load_generator.hpp"

namespace sg {

enum class ControllerKind {
  kStatic,
  kParties,
  kCaladan,
  kEscalator,             // Escalator without FirstResponder (Fig. 10)
  kSurgeGuard,            // Escalator + FirstResponder
  kEscalatorMetricsOnly,  // Fig. 15: new metrics, no sensitivity
  kEscalatorSensOnly,     // Fig. 15: sensitivity, Parties' metric
  kIdealOracle,           // Fig. 4
  kCentralizedML,         // Table I's ML row (Sinan/Sage stand-in)
  kMLPlusSurgeGuard,      // paper §VII: ML for steady state + SurgeGuard
};

const char* to_string(ControllerKind k);

/// Low-load profiling output: the per-container targets and the operating
/// context shared by every controller in an experiment.
struct ProfileResult {
  TargetMap targets;
  /// Mean end-to-end latency at low load (QoS derives from this).
  Duration low_load_mean_latency;
  /// 98th-percentile end-to-end latency at low load (diagnostics).
  Duration low_load_p98;
};

struct ExperimentConfig {
  WorkloadInfo workload;
  ControllerKind controller = ControllerKind::kSurgeGuard;

  int nodes = 1;

  /// Surge shape: spike_rate = surge_mult * base rate, for surge_len, every
  /// surge_period, first one at warmup + first_surge_offset.
  double surge_mult = 1.75;
  Duration surge_len = 2 * kSecond;
  Duration surge_period = 10 * kSecond;
  Duration first_surge_offset = 1 * kSecond;

  Duration warmup = 5 * kSecond;
  Duration duration = 30 * kSecond;

  /// QoS target = qos_mult x low-load mean e2e latency (wrk2_spike -qos).
  /// 2x leaves headroom over base-load tails yet is tight enough that even
  /// 1.25x surges violate, as in the paper.
  double qos_mult = 2.0;
  /// Per-container targets = target_mult x low-load profile (paper: 2x).
  double target_mult = 2.0;

  Duration vv_window = 5 * kMillisecond;

  /// Node sizing: allocatable cores = ceil(initial_on_node * free_headroom)
  /// (artifact: workload initialized to 2/3 of allocatable cores).
  double free_headroom = 1.5;

  std::uint64_t seed = 1;

  /// Overrides the derived spike pattern entirely (Fig. 10 short surges).
  std::optional<SpikePattern> pattern_override;

  /// Enables the per-node shared memory-bandwidth interference domain
  /// (paper §VII extension; bench_ablation_membw).
  std::optional<MemBwDomain::Params> membw;

  /// Escalator options for every Escalator the testbed builds (the
  /// Escalator, SurgeGuard and ML+SurgeGuard kinds; the two Fig. 15 kinds
  /// override `use_*` and `interval` on top). bench_ablation_thresholds
  /// sweeps the thresholds here.
  Escalator::Options escalator;

  /// Deterministic fault schedule (chaos experiments). Empty = no faults and
  /// a bit-identical pre-fault event sequence. Window times are absolute
  /// simulation times (warmup included). Network-latency surges, the
  /// paper's second disruption class, are kPacketDelay windows.
  FaultPlan fault_plan;

  /// RPC retransmission policy applied to BOTH the application's child RPCs
  /// and the client's requests. Required for requests to survive packet
  /// loss; leave disabled for fault-free runs. experiment_from_config
  /// enables it when a fault plan is set and retry.enabled is absent.
  RpcRetryPolicy rpc_retry;

  /// Extra time simulated after measure_end with the generator stopped, so
  /// retried requests drain before results are read. Chaos runs should set
  /// this to at least the retry policy's worst-case backoff sum;
  /// experiment_from_config makes it 5 s when a fault plan is set and
  /// drain_s is absent.
  Duration drain;

  /// IdealOracle detection delay (Fig. 4).
  Duration ideal_detection_delay = 200 * kMicrosecond;
  Duration ideal_drain_window = 500 * kMillisecond;

  /// Per-request distributed tracing (sg::trace). Off by default: the
  /// instrumented paths then reduce to one null check and the run is
  /// bit-identical to an untraced build.
  bool trace_enabled = false;
  /// Head-sampling rate in [0, 1] (hash of the request id; no RNG draws).
  double trace_sample = 1.0;
  /// Kept-trace ring capacity.
  std::size_t trace_capacity = 4096;
  /// Tail sampling: also keep requests whose latency exceeds the QoS.
  bool trace_keep_violators = true;

  /// Derived spike pattern for this config.
  SpikePattern make_pattern() const;

  /// Member-wise, so a field added later is compared too: the figure suite
  /// runs two equal configurations once.
  bool operator==(const ExperimentConfig&) const = default;
};

/// One service container's exact resource record: every change point of
/// its core allocation and of its frequency (MHz) over the whole run.
struct ServiceTimeline {
  std::string name;
  StepTimeline cores;
  StepTimeline mhz;
};

struct ExperimentResult {
  LoadGenResults load;

  /// Time-averaged allocated cores over the measurement window.
  double avg_cores = 0.0;
  /// Busy-core energy over the measurement window (joules).
  double energy_joules = 0.0;

  /// FirstResponder counters (zero unless the controller has one).
  std::uint64_t fr_packets = 0;
  std::uint64_t fr_violations = 0;
  std::uint64_t fr_boosts = 0;

  /// Fault-injection footprint (all zero for fault-free runs).
  FaultStats faults;
  std::uint64_t app_rpc_retries = 0;
  std::uint64_t app_rpc_failures = 0;
  std::uint64_t app_stray_responses = 0;
  std::uint64_t controller_ticks_stalled = 0;
  std::uint64_t events_processed = 0;

  /// Core and frequency timelines of every service container, in service
  /// order.
  std::vector<ServiceTimeline> timelines;

  /// Request-level trace snapshot (present when trace_enabled). Detached
  /// from the testbed: exporters can run after the simulation is gone.
  std::optional<TraceReport> trace;

  TimePoint measure_start;
  TimePoint measure_end;
};

/// Profiles the workload at low load (10% of base rate) with a static
/// controller; deterministic for a given seed.
ProfileResult profile_workload(const WorkloadInfo& workload, int nodes,
                               double target_mult = 2.0,
                               std::uint64_t seed = 42);

/// Runs one experiment replication.
ExperimentResult run_experiment(const ExperimentConfig& config,
                                const ProfileResult& profile);

/// Convenience: profile + run in one call (profiling cached per call only).
ExperimentResult run_experiment(const ExperimentConfig& config);

}  // namespace sg
