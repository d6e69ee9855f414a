// Step-function time series with exact time-weighted integration.
//
// Used for (a) per-container core-allocation timelines (paper Fig. 14),
// (b) average-cores-used and energy accounting (Figs. 11-13), and (c) the
// output-latency timeline that the violation-volume metric integrates.
#pragma once

#include <algorithm>
#include <vector>

#include "common/time.hpp"

namespace sg {

/// Piecewise-constant series: value v_i holds on [t_i, t_{i+1}).
class StepTimeline {
 public:
  /// Starts the series at t=0 with `initial`.
  explicit StepTimeline(double initial = 0.0);

  /// Records a new value effective from `t`. Times must be non-decreasing;
  /// same-time updates overwrite (last writer wins).
  void set(TimePoint t, double value);

  /// Current (latest) value.
  double current() const { return points_.back().value; }

  /// Value in effect at time t (t before the first point returns the
  /// initial value).
  double at(TimePoint t) const;

  /// Time integral of the series over [t0, t1] (units: value * ns).
  double integrate(TimePoint t0, TimePoint t1) const;

  /// Time-weighted average over [t0, t1].
  double average(TimePoint t0, TimePoint t1) const;

  /// Time integral of max(0, value - threshold) over [t0, t1]. This is the
  /// violation-volume primitive (paper Fig. 3) when the series is latency.
  double integrate_above(TimePoint t0, TimePoint t1, double threshold) const;

  /// Total time within [t0, t1] during which value > threshold. With a
  /// frequency timeline and threshold = base MHz this is the
  /// "boost active" duration trace spans report.
  Duration time_above(TimePoint t0, TimePoint t1, double threshold) const;

  struct Point {
    TimePoint time;
    double value;
  };
  const std::vector<Point>& points() const { return points_; }

 private:
  std::vector<Point> points_;
};

}  // namespace sg
