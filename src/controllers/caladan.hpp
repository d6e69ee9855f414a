// CaladanAlgo (Fried et al., OSDI'20), reconstructed as the paper evaluates
// it (§V): the Caladan core-allocation algorithm re-hosted as a userspace
// controller on the ordinary networking stack. Caladan's native signal is
// queueing delay observed inside its custom stack; lacking that visibility,
// the paper substitutes SurgeGuard's queueBuildup metric as the queueing
// signal — reproduced here.
//
// Behaviour to expect (paper §VI-B): fast and aggressive on workloads with
// explicit/implicit queues, but it adds cores to the container *holding*
// the queue (not the root cause), and on connection-per-request workloads
// (hotelReservation) queueBuildup stays ~1 so it never upscales at all —
// tiny energy, enormous violation volume.
#pragma once

#include "controllers/controller.hpp"

namespace sg {

class CaladanAlgo final : public Controller {
 public:
  /// Decision interval. Caladan's native interval is 5-20us (Table I);
  /// as a userspace controller over periodic runtime metrics it is bound
  /// below by the metric publication interval.
  static constexpr Duration kInterval = 50 * kMillisecond;
  /// Upscale when queueBuildup exceeds this (Caladan reacts to any
  /// standing queue).
  static constexpr double kQueueThreshold = 1.05;
  /// Revoke when queueBuildup is below this and the container's top core
  /// has been mostly idle over the window (Caladan parks idle cores).
  static constexpr double kIdleThreshold = 1.01;
  /// Top core counts as idle when window-average busy cores stayed below
  /// cores - 1 - margin.
  static constexpr double kIdleMargin = 0.2;
  /// Logical cores granted per congested container per tick. Caladan's
  /// native loop re-adds cores within microseconds until queues clear;
  /// over one (much longer) userspace tick that compounds to multiple
  /// hyperthreads. Revocation stays at single-hyperthread granularity
  /// (the paper lets CaladanAlgo allocate hyperthreads individually, §V).
  static constexpr int kGrantStep = 2;
  static constexpr int kRevokeStep = 1;

  explicit CaladanAlgo(ControllerEnv env) : env_(std::move(env)) {}

  void start() override;

  void tick();

 private:
  ControllerEnv env_;
  Actuator act_{env_, "caladan"};
  BusyWindowTracker busy_;
};

}  // namespace sg
