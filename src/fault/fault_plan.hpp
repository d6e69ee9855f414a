// FaultPlan: a declarative, seed-deterministic schedule of fault windows.
//
// SurgeGuard's claim is graceful behaviour under disturbance, so the
// reproduction must be testable under disturbance, not just the happy path.
// A FaultPlan is a list of timed windows, each activating one fault class:
//
//   kPacketDrop     packets lost on the wire with probability `rate`
//   kPacketDup      packets delivered twice with probability `rate`
//   kPacketDelay    every packet pays `extra_delay` more one-way latency
//   kNodeSlowdown   containers on `node` execute at `factor` x normal speed
//   kNodeFreeze     `node` loses all cores for the window, then restarts
//                   with its pre-freeze allocation
//   kControllerStall  controller decision ticks are skipped (missed ticks)
//
// The plan itself is pure data: the FaultInjector wires it into a concrete
// testbed. Every stochastic draw (drop/dup coin flips) comes from an RNG
// forked off the owning Simulator, so a (plan, seed) pair reproduces the
// exact same fault timeline — which is what makes chaos tests assertable
// rather than flaky.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/time.hpp"

namespace sg {

enum class FaultKind {
  kPacketDrop,
  kPacketDup,
  kPacketDelay,
  kNodeSlowdown,
  kNodeFreeze,
  kControllerStall,
};

const char* to_string(FaultKind k);

/// One timed fault window [start, end). Fields beyond the timing are
/// interpreted per kind (see the table above); `node` = -1 targets every
/// node (node-scoped kinds only).
struct FaultWindow {
  FaultKind kind = FaultKind::kPacketDrop;
  TimePoint start;
  TimePoint end;
  /// Per-packet probability for kPacketDrop / kPacketDup.
  double rate = 0.0;
  /// Execution-speed multiplier for kNodeSlowdown, in (0, 1].
  double factor = 1.0;
  /// Additional one-way packet delay for kPacketDelay.
  Duration extra_delay;
  /// Target node for kNodeSlowdown / kNodeFreeze (-1 = all nodes).
  int node = -1;

  bool active_at(TimePoint t) const { return t >= start && t < end; }

  bool operator==(const FaultWindow&) const = default;
};

class FaultPlan {
 public:
  FaultPlan() = default;

  /// Parses the compact spec used by `sg_run --fault-plan` and the
  /// `fault.plan` config key. Windows are `;`-separated; each is
  /// `kind:key=value,key=value,...` with kind one of
  /// drop | dup | delay | slow | freeze | stall and keys
  /// start_ms, len_ms, rate, factor, extra_us, node. Example:
  ///
  ///   drop:start_ms=6000,len_ms=2000,rate=0.1;slow:node=0,start_ms=9000,len_ms=500,factor=0.25
  ///
  /// Each window takes only the keys its kind reads: start_ms and len_ms
  /// always, rate on drop/dup, extra_us on delay, factor on slow and node
  /// on slow/freeze. Every value must be a finite number: times, rounded to
  /// the nearest ns, must fit a Duration (and so must start_ms + len_ms),
  /// rate lie in [0, 1], factor in (0, 1], and node be an integer >= -1.
  /// Returns nullopt and fills `error`, naming the key and the value (or
  /// the key and the kind), on malformed specs.
  static std::optional<FaultPlan> parse(const std::string& spec,
                                        std::string* error = nullptr);

  void add(FaultWindow w) { windows_.push_back(w); }

  const std::vector<FaultWindow>& windows() const { return windows_; }
  bool empty() const { return windows_.empty(); }
  std::size_t size() const { return windows_.size(); }

  bool operator==(const FaultPlan&) const = default;

  /// Validates every window (positive length, rates in [0,1], factor in
  /// (0,1], delay >= 0); fills `error` on the first violation.
  bool validate(std::string* error = nullptr) const;

  /// Serializes back to the spec grammar parse() accepts: each value with
  /// the fewest significant digits, at least 6, that parse back to it, so
  /// parse(p.to_string()) == p for every plan parse() returns.
  std::string to_string() const;

  /// --- point queries (used by the injector's wire hook) ---

  /// Combined drop probability of all active kPacketDrop windows at t
  /// (independent windows compose: 1 - prod(1 - rate_i)).
  double drop_rate_at(TimePoint t) const;

  /// Combined duplication probability of active kPacketDup windows at t.
  double dup_rate_at(TimePoint t) const;

  /// Sum of active kPacketDelay windows' extra delay at t.
  Duration extra_delay_at(TimePoint t) const;

  /// True when a kControllerStall window is active at t.
  bool controller_stalled_at(TimePoint t) const;

 private:
  std::vector<FaultWindow> windows_;
};

}  // namespace sg
