#include "workload/violation_volume.hpp"

#include "common/assert.hpp"

namespace sg {

ViolationVolumeTracker::ViolationVolumeTracker(Duration qos, Duration window)
    : qos_(qos), window_(window), series_(0.0) {
  SG_ASSERT(qos > Duration::zero() && window > Duration::zero());
}

void ViolationVolumeTracker::close_window() {
  if (window_count_ > 0) {
    series_.set(window_start_, window_sum_ / static_cast<double>(window_count_));
  }
  // Empty windows: hold the previous value (no series update).
  window_sum_ = 0.0;
  window_count_ = 0;
}

void ViolationVolumeTracker::record_completion(TimePoint t,
                                               Duration latency) {
  SG_ASSERT_MSG(t >= window_start_, "completions must be time-ordered");
  while (t >= window_start_ + window_) {
    close_window();
    window_start_ += window_;
  }
  window_sum_ += static_cast<double>(latency.ns());
  ++window_count_;
}

void ViolationVolumeTracker::finalize(TimePoint now) {
  while (now >= window_start_ + window_) {
    close_window();
    window_start_ += window_;
  }
  close_window();
}

double ViolationVolumeTracker::violation_volume_ns2(TimePoint t0,
                                                    TimePoint t1) const {
  return series_.integrate_above(t0, t1, static_cast<double>(qos_.ns()));
}

double ViolationVolumeTracker::violation_volume_ms_s(TimePoint t0,
                                                     TimePoint t1) const {
  // ns (latency) * ns (time) -> ms * s: divide by 1e6 * 1e9.
  return violation_volume_ns2(t0, t1) / 1e15;
}

double ViolationVolumeTracker::violation_duration_fraction(TimePoint t0,
                                                           TimePoint t1) const {
  if (t1 <= t0) return 0.0;
  const Duration above =
      series_.time_above(t0, t1, static_cast<double>(qos_.ns()));
  return static_cast<double>(above.ns()) / static_cast<double>((t1 - t0).ns());
}

}  // namespace sg
