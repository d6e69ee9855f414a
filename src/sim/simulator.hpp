// Discrete-event simulator core.
//
// Deterministic by construction: one Simulator per experiment replication,
// with its own clock, event queue and RNG, run on one thread. Parallelism
// lives a level up, across independent replications (core/sweep.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "sim/event_queue.hpp"

namespace sg {

class TraceSink;
struct TraceOptions;

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimePoint now() const { return now_; }
  /// Alias of now() for the benchmark harness (simbench/simbench.cpp), which
  /// still calls it; delete it once the harness calls now().
  TimePoint now_point() const { return now_; }
  Rng& rng() { return rng_; }

  /// Schedules a callback at absolute time t (clamped to now for past times,
  /// so "immediate" follow-ups from within a handler are legal). Like every
  /// schedule_* call, it constructs the callable directly in its event slot.
  template <class F>
  EventId schedule_at(TimePoint t, F&& f) {
    if (t < now_) t = now_;
    return queue_.push(t, std::forward<F>(f));
  }

  /// schedule_at with an explicit same-timestamp tie-break rank (see
  /// EventQueue); used by Network so delivery order is canonical.
  template <class F>
  EventId schedule_at_ranked(TimePoint t, std::uint64_t rank, F&& f) {
    if (t < now_) t = now_;
    return queue_.push(t, rank, std::forward<F>(f));
  }

  /// Schedules a callback `delay` from now (delay < 0 clamps to 0).
  template <class F>
  EventId schedule_after(Duration delay, F&& f) {
    if (delay < Duration::zero()) delay = Duration::zero();
    return queue_.push(now_ + delay, std::forward<F>(f));
  }

  /// schedule_after for timeouts and periodic ticks: every timer of one
  /// delay waits in a FIFO lane of the event queue instead of the heap (see
  /// EventQueue). Fires at the same instant and in the same order as
  /// schedule_after would; meant for a handful of fixed delays (RPC and
  /// client retry timeouts, tick periods), since each distinct delay keeps
  /// a lane.
  template <class F>
  EventId schedule_timer(Duration delay, F&& f) {
    if (delay < Duration::zero()) delay = Duration::zero();
    const std::uint32_t lane = timer_lane(delay);
    return queue_.push_lane(lane, now_ + delay, std::forward<F>(f));
  }

  /// Timer lanes created so far: one per distinct (clamped) delay.
  std::size_t timer_lanes() const { return timer_delays_.size(); }

  /// Cancels a pending event (no-op for fired/unknown handles).
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Moves pending event `id` (scheduled with schedule_at/_after, not
  /// schedule_timer) to `delay` from now (delay < 0 clamps to 0). Same
  /// firing instant and order as cancel() followed by schedule_after(), but
  /// the event keeps its id and callback. False for a fired or unknown id.
  bool reschedule_after(EventId id, Duration delay) {
    if (delay < Duration::zero()) delay = Duration::zero();
    return queue_.reschedule(id, now_ + delay);
  }

  /// Processes one event; returns false when the queue is empty.
  bool step();

  /// Runs events with time <= end; the clock finishes exactly at `end` even
  /// if the queue drains early (so time-integrated statistics are exact).
  void run_until(TimePoint end);

  /// Runs until the event queue is empty.
  void run_to_completion();

  std::uint64_t events_processed() const { return events_processed_; }
  std::size_t events_pending() const { return queue_.size(); }

  /// Class of a periodic tick, used by fault injection to stall specific
  /// consumers (controller decision loops) without touching others (metric
  /// publication).
  enum class TickClass { kDefault, kController };

  /// Registers a periodic tick: fn runs every `period` starting at `start`,
  /// until it returns false. Used for controller decision loops.
  ///
  /// When a tick gate is installed and vetoes a firing, fn is skipped for
  /// that period (the tick is "missed") but the chain keeps rescheduling —
  /// this models a stalled controller that resumes after the stall window.
  ///
  /// Each firing pushes the next one only after fn returns (or the gate
  /// vetoes), so events fn schedules at now + period run before that tick.
  /// The re-arm is a schedule_timer(period): chains of one period share a
  /// timer lane, and only its head waits in the event heap.
  void schedule_periodic(TimePoint start, Duration period,
                         std::function<bool()> fn,
                         TickClass tick_class = TickClass::kDefault);

  /// Installs the periodic-tick gate (nullptr clears it). The gate returns
  /// false to veto a firing of the given class. Installed by the fault
  /// injector; at most one gate exists per simulator.
  void set_tick_gate(std::function<bool(TickClass)> gate) {
    tick_gate_ = std::move(gate);
  }

  /// Periodic firings vetoed by the tick gate so far.
  std::uint64_t ticks_stalled() const { return ticks_stalled_; }

  /// --- tracing (sg::trace) ---
  ///
  /// The simulator owns the trace sink so every layer holding a Simulator&
  /// (network, application, containers, controllers) reaches it without
  /// extra plumbing. The sink never schedules events or draws from the RNG,
  /// so enabling tracing leaves the event sequence bit-identical.

  /// Installs a sink (replacing any previous one); returns it for further
  /// configuration (SLO threshold, container metadata).
  TraceSink& enable_tracing(const TraceOptions& options);

  /// Active sink, or nullptr when tracing is disabled. Instrumentation
  /// sites null-check this — the disabled cost is one pointer load.
  TraceSink* trace_sink() const { return trace_sink_.get(); }

 private:
  struct PeriodicChain {
    Duration period;
    std::function<bool()> fn;  // empty once the chain has ended
    TickClass tick_class;
  };

  void fire_periodic(std::size_t chain);
  /// The timer lane of `delay` (>= 0), created on first use.
  std::uint32_t timer_lane(Duration delay);

  EventQueue queue_;
  /// Delay of each timer lane, indexed by lane.
  std::vector<Duration> timer_delays_;
  /// Indexed by the [this, chain] tick events; a deque so fn may register
  /// more chains while it runs without moving the one being called.
  std::deque<PeriodicChain> chains_;
  TimePoint now_;
  std::uint64_t events_processed_ = 0;
  std::uint64_t ticks_stalled_ = 0;
  Rng rng_;
  std::function<bool(TickClass)> tick_gate_;
  std::unique_ptr<TraceSink> trace_sink_;
};

}  // namespace sg
