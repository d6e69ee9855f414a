#include "sim/simulator.hpp"

#include <memory>
#include <utility>

#include "common/assert.hpp"
#include "trace/trace.hpp"

namespace sg {

Simulator::Simulator(std::uint64_t seed) : rng_(seed) {}

// Out of line: TraceSink is only forward-declared in the header.
Simulator::~Simulator() = default;

TraceSink& Simulator::enable_tracing(const TraceOptions& options) {
  trace_sink_ = std::make_unique<TraceSink>(options);
  return *trace_sink_;
}

std::uint32_t Simulator::timer_lane(Duration delay) {
  std::size_t lane = 0;
  while (lane < timer_delays_.size() && timer_delays_[lane] != delay) ++lane;
  if (lane == timer_delays_.size()) timer_delays_.push_back(delay);
  return static_cast<std::uint32_t>(lane);
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  // The callback runs in its slot; `fired` frees the slot after it returns.
  EventQueue::Fired fired = queue_.pop();
  SG_ASSERT_MSG(fired.time >= now_, "event queue returned time in the past");
  now_ = fired.time;
  ++events_processed_;
  fired.run();
  return true;
}

void Simulator::run_until(TimePoint end) {
  while (!queue_.empty() && queue_.next_time() <= end) {
    step();
  }
  if (now_ < end) now_ = end;
}

void Simulator::run_to_completion() {
  while (step()) {
  }
}

void Simulator::schedule_periodic(TimePoint start, Duration period,
                                  std::function<bool()> fn,
                                  TickClass tick_class) {
  SG_ASSERT_MSG(period > Duration::zero(),
                "periodic event needs a positive period");
  const std::size_t chain = chains_.size();
  chains_.push_back(PeriodicChain{period, std::move(fn), tick_class});
  schedule_at(start, [this, chain]() { fire_periodic(chain); });
}

void Simulator::fire_periodic(std::size_t chain) {
  PeriodicChain& c = chains_[chain];
  if (tick_gate_ && !tick_gate_(c.tick_class)) {
    // Stalled: the tick is missed, but the chain survives the window.
    ++ticks_stalled_;
  } else if (!c.fn()) {
    c.fn = nullptr;  // ended: release the captures
    return;
  }
  schedule_timer(c.period, [this, chain]() { fire_periodic(chain); });
}

}  // namespace sg
