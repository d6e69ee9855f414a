// Input load patterns with injected request-rate spikes.
//
// Mirrors the paper's modified wrk2 (`wrk2_spike`, artifact A2): an open-
// loop generator with `-rate` (steady rate), `-spikerate` (rate during the
// spike), `-spikelen` (spike duration), plus the spike injection period used
// in §VI ("injecting 2s long request rate surges every 10s").
#pragma once

#include <vector>

#include "common/time.hpp"

namespace sg {

struct SpikePattern {
  double base_rate_rps = 1000.0;

  /// Rate during a spike (wrk2_spike -spikerate). Equal to base_rate_rps
  /// means no spikes.
  double spike_rate_rps = 1000.0;

  /// Spike duration (wrk2_spike -spikelen); 0 disables spikes.
  Duration spike_len;

  /// A spike starts every `spike_period`, the first at `first_spike_at`.
  Duration spike_period = 10 * kSecond;
  TimePoint first_spike_at = TimePoint::at(5 * kSecond);

  bool has_spikes() const {
    return spike_len > Duration::zero() && spike_rate_rps != base_rate_rps;
  }

  bool in_spike(TimePoint t) const;

  /// Instantaneous request rate at time t.
  double rate_at(TimePoint t) const;

  /// First time strictly after t at which the rate changes (spike start or
  /// end); TimePoint::infinity() when the pattern is steady.
  TimePoint next_rate_change(TimePoint t) const;

  /// Spike windows intersecting [t0, t1] (for oracle controllers and
  /// plotting).
  struct Window {
    TimePoint start;
    TimePoint end;
  };
  std::vector<Window> spikes_in(TimePoint t0, TimePoint t1) const;

  /// Convenience: steady load at `rate`.
  static SpikePattern steady(double rate);

  /// Convenience: `mult`x surges of `len` every `period` on top of `rate`.
  static SpikePattern surges(double rate, double mult, Duration len,
                             Duration period, TimePoint first_at);

  bool operator==(const SpikePattern&) const = default;
};

}  // namespace sg
