// FirstResponder: SurgeGuard's fast path (paper §IV-A, Design Feature #1).
//
// A per-node kernel module hooked on the earliest receive-side point of the
// network stack. For EVERY packet it computes per-packet slack
//
//   slack = expectedTimeFromStart - (now - pkt.startTime)     (eqs. 4-5)
//
// and on negative slack immediately boosts the frequency of the receiving
// container and its same-node downstream containers. No averaging — one
// late packet is enough, which is what makes 100us-scale surges detectable
// at all (Fig. 10a).
//
// The two-thread coordinator-worker design (Fig. 9) keeps the MSR write off
// the packet path: the hook only enqueues a work item (0.44us) and the
// worker applies the frequency (2.1us) off the critical path. Here that is
// modeled as a small delay between detection and the boost taking effect.
//
// To bound update churn from noisy per-packet slack, once a path is boosted
// its frequency is frozen for ~2x the end-to-end request latency.
#pragma once

#include <cstdint>
#include <vector>

#include "controllers/controller.hpp"

namespace sg {

class FirstResponder final : public Controller, public RxHook {
 public:
  /// Delay between detecting a violation and the frequency change taking
  /// effect (work-item enqueue 0.44us + worker MSR write 2.1us, §VI-D).
  static constexpr Duration kUpdateLatency = 2540 * kNanosecond;

  /// Per-path freeze window = kFreezeMultiple x the profiled end-to-end
  /// latency (2 ms when nothing was profiled).
  static constexpr double kFreezeMultiple = 2.0;

  /// Extra margin on expectedTimeFromStart before slack counts as
  /// negative. The paper's 2x-low-load targets assume the many-core
  /// containers of its testbed, whose base-load latency distribution is
  /// tight; the simulator's 1-2-core containers have heavier processor-
  /// sharing tails, so without margin FirstResponder would fire on
  /// ordinary base-load jitter rather than genuine surges.
  static constexpr double kSlackMargin = 1.75;

  FirstResponder(ControllerEnv env, Network& network)
      : env_(std::move(env)), network_(network) {}

  /// Attaches the hook to this node's receive path and fixes the slack
  /// limits from env.targets (set the targets before calling it).
  void start() override;

  /// RxHook: the per-packet slack check (the 0.26us critical-path code).
  void on_packet(const RpcPacket& pkt) override;

  /// --- overhead counters (§VI-D) ---
  std::uint64_t packets_inspected() const { return packets_inspected_; }
  std::uint64_t violations_detected() const { return violations_detected_; }
  std::uint64_t boosts_applied() const { return boosts_applied_; }

  Duration effective_freeze_window() const { return freeze_window_; }

 private:
  void boost(int container);

  ControllerEnv env_;
  Actuator act_{env_, "first-responder"};
  Network& network_;
  Duration freeze_window_;
  /// kSlackMargin x expectedTimeFromStart, indexed by container id;
  /// Duration::infinity() for a container without targets. Built by
  /// start(), so the per-packet check is one vector load.
  std::vector<Duration> slack_limit_;
  /// Per-container "do not touch until" timestamps, indexed like
  /// slack_limit_; TimePoint::origin() for a container never frozen.
  std::vector<TimePoint> frozen_until_;

  std::uint64_t packets_inspected_ = 0;
  std::uint64_t violations_detected_ = 0;
  std::uint64_t boosts_applied_ = 0;
};

}  // namespace sg
