// Centralized ML-class controller stand-in (Table I's "ML" row: Sinan/Sage).
//
// The paper characterizes ML controllers as (a) dependence-aware — they
// learn inter-container relations and size every container correctly for
// the end-to-end target; (b) centralized — container metrics travel to one
// inference server and decisions travel back; (c) slow — decision
// granularity >1s even when inference itself takes tens of milliseconds,
// because of metric collection, smoothing, and communication.
//
// We do not train a model; instead this controller is given what a
// well-trained model would infer — each container's measured CPU demand and
// latency headroom — and emulates the ML deployment costs: a >=1s decision
// interval plus an inference + communication latency between reading
// metrics and applying allocations. That reproduces exactly the trade-off
// the paper argues: near-ideal steady-state rightsizing, far too slow for
// transient surges.
//
// §VII's proposed deployment — the ML controller periodically setting
// steady-state allocations while SurgeGuard handles transients in between —
// is available as ControllerKind::kMLPlusSurgeGuard.
#pragma once

#include <memory>
#include <vector>

#include "controllers/controller.hpp"

namespace sg {

class CentralizedMLController final : public Controller {
 public:
  /// Decision interval (paper Table I: > 1s).
  static constexpr Duration kInterval = 1 * kSecond;
  /// Inference + metric-collection + decision-distribution latency between
  /// the metric snapshot and allocations taking effect.
  static constexpr Duration kInferenceLatency = 200 * kMillisecond;
  /// Utilization the "model" provisions each container for.
  static constexpr double kUtilTarget = 0.7;
  /// Demand estimates are inflated by the container's latency overshoot
  /// (a trained model predicts the allocation that restores the target).
  static constexpr double kMaxInflation = 4.0;

  /// Centralized: sees every node and every bus (unlike the per-node
  /// controllers, which is the point of the comparison).
  CentralizedMLController(Simulator& sim, Cluster& cluster,
                          MetricsPlane& metrics, TargetMap targets);

  void start() override;

  /// One decision cycle: snapshot now, apply after kInferenceLatency.
  void tick();

 private:
  Simulator& sim_;
  Cluster& cluster_;
  MetricsPlane& metrics_;
  TargetMap targets_;
  Actuator act_{sim_, cluster_, "centralized-ml"};
  BusyWindowTracker busy_;
};

}  // namespace sg
