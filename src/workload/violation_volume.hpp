// Violation volume: the paper's evaluation metric (§II-D, Fig. 3).
//
// Violation volume is the magnitude-duration product of QoS violations: the
// area of the output-latency-vs-time curve above the QoS target. It
// captures both how *badly* and for how *long* a controller misses QoS,
// unlike tail latency (ignores duration) or violation frequency (ignores
// magnitude).
//
// The output-latency curve is built from completions bucketed into fixed
// windows (mean latency per window); empty windows hold the previous value,
// matching how a latency-over-time plot of a stalled system reads until the
// stall's huge-latency completions land.
#pragma once

#include "common/time.hpp"
#include "sim/timeline.hpp"

namespace sg {

class ViolationVolumeTracker {
 public:
  /// qos: the end-to-end latency target (wrk2_spike -qos).
  /// window: bucketing granularity of the output-latency curve. Short-surge
  /// experiments (Fig. 10) use ~1ms; the 2s-surge experiments use ~5-10ms.
  ViolationVolumeTracker(Duration qos, Duration window = 5 * kMillisecond);

  /// Feeds one completed request (completion time t, end-to-end latency).
  /// Completion times must be non-decreasing (event-loop order guarantees
  /// this).
  void record_completion(TimePoint t, Duration latency);

  /// Closes any open window (call once before reading results).
  void finalize(TimePoint now);

  /// Violation volume over [t0, t1] in nanosecond·nanoseconds.
  double violation_volume_ns2(TimePoint t0, TimePoint t1) const;

  /// Violation volume in millisecond·seconds (the natural reporting unit:
  /// latency excess in ms integrated over seconds of wall time).
  double violation_volume_ms_s(TimePoint t0, TimePoint t1) const;

  /// Fraction of [t0, t1] spent above QoS (violation duration share).
  double violation_duration_fraction(TimePoint t0, TimePoint t1) const;

 private:
  void close_window();

  Duration qos_;
  Duration window_;
  StepTimeline series_;
  TimePoint window_start_;
  double window_sum_ = 0.0;
  long window_count_ = 0;
};

}  // namespace sg
