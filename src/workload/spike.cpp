#include "workload/spike.hpp"

#include <algorithm>
#include <cstdint>

namespace sg {

bool SpikePattern::in_spike(TimePoint t) const {
  if (!has_spikes()) return false;
  if (t < first_spike_at) return false;
  const Duration since = (t - first_spike_at) % spike_period;
  return since < spike_len;
}

double SpikePattern::rate_at(TimePoint t) const {
  return in_spike(t) ? spike_rate_rps : base_rate_rps;
}

TimePoint SpikePattern::next_rate_change(TimePoint t) const {
  if (!has_spikes()) return TimePoint::infinity();
  if (t < first_spike_at) return first_spike_at;
  const std::int64_t k = (t - first_spike_at).ns() / spike_period.ns();
  const Duration within = (t - first_spike_at) % spike_period;
  if (within < spike_len) {
    return first_spike_at + k * spike_period + spike_len;
  }
  return first_spike_at + (k + 1) * spike_period;
}

std::vector<SpikePattern::Window> SpikePattern::spikes_in(TimePoint t0,
                                                          TimePoint t1) const {
  std::vector<Window> out;
  if (!has_spikes() || t1 <= t0) return out;
  // First spike index whose window could intersect [t0, t1].
  std::int64_t k0 = 0;
  if (t0 > first_spike_at) k0 = (t0 - first_spike_at).ns() / spike_period.ns();
  for (std::int64_t k = std::max<std::int64_t>(0, k0 - 1);; ++k) {
    const TimePoint start = first_spike_at + k * spike_period;
    if (start >= t1) break;
    const TimePoint end = start + spike_len;
    if (end > t0) out.push_back({start, end});
  }
  return out;
}

SpikePattern SpikePattern::steady(double rate) {
  SpikePattern p;
  p.base_rate_rps = rate;
  p.spike_rate_rps = rate;
  p.spike_len = Duration::zero();
  return p;
}

SpikePattern SpikePattern::surges(double rate, double mult, Duration len,
                                  Duration period, TimePoint first_at) {
  SpikePattern p;
  p.base_rate_rps = rate;
  p.spike_rate_rps = rate * mult;
  p.spike_len = len;
  p.spike_period = period;
  p.first_spike_at = first_at;
  return p;
}

}  // namespace sg
