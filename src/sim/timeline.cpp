#include "sim/timeline.hpp"

#include "common/assert.hpp"

namespace sg {

StepTimeline::StepTimeline(double initial) {
  points_.push_back({TimePoint::origin(), initial});
}

void StepTimeline::set(TimePoint t, double value) {
  SG_ASSERT_MSG(t >= points_.back().time, "timeline updates must be ordered");
  if (t == points_.back().time) {
    points_.back().value = value;
    return;
  }
  if (points_.back().value == value) return;  // no-op transition
  points_.push_back({t, value});
}

double StepTimeline::at(TimePoint t) const {
  // Find last point with time <= t.
  auto it = std::upper_bound(
      points_.begin(), points_.end(), t,
      [](TimePoint lhs, const Point& p) { return lhs < p.time; });
  if (it == points_.begin()) return points_.front().value;
  return std::prev(it)->value;
}

double StepTimeline::integrate(TimePoint t0, TimePoint t1) const {
  if (t1 <= t0) return 0.0;
  double acc = 0.0;
  auto it = std::upper_bound(
      points_.begin(), points_.end(), t0,
      [](TimePoint lhs, const Point& p) { return lhs < p.time; });
  if (it != points_.begin()) --it;
  for (; it != points_.end(); ++it) {
    const TimePoint seg_start = std::max(it->time, t0);
    const TimePoint seg_end =
        (std::next(it) == points_.end()) ? t1
                                         : std::min(std::next(it)->time, t1);
    if (seg_start >= t1) break;
    if (seg_end > seg_start) {
      acc += it->value * static_cast<double>((seg_end - seg_start).ns());
    }
  }
  return acc;
}

double StepTimeline::average(TimePoint t0, TimePoint t1) const {
  if (t1 <= t0) return at(t0);
  return integrate(t0, t1) / static_cast<double>((t1 - t0).ns());
}

double StepTimeline::integrate_above(TimePoint t0, TimePoint t1,
                                     double threshold) const {
  if (t1 <= t0) return 0.0;
  double acc = 0.0;
  // Locate the first segment that overlaps [t0, t1].
  auto it = std::upper_bound(
      points_.begin(), points_.end(), t0,
      [](TimePoint lhs, const Point& p) { return lhs < p.time; });
  if (it != points_.begin()) --it;
  for (; it != points_.end(); ++it) {
    const TimePoint seg_start = std::max(it->time, t0);
    const TimePoint seg_end =
        (std::next(it) == points_.end()) ? t1
                                         : std::min(std::next(it)->time, t1);
    if (seg_start >= t1) break;
    if (seg_end > seg_start) {
      const double excess = it->value - threshold;
      if (excess > 0.0) {
        acc += excess * static_cast<double>((seg_end - seg_start).ns());
      }
    }
  }
  return acc;
}

Duration StepTimeline::time_above(TimePoint t0, TimePoint t1,
                                  double threshold) const {
  if (t1 <= t0) return Duration::zero();
  Duration acc;
  auto it = std::upper_bound(
      points_.begin(), points_.end(), t0,
      [](TimePoint lhs, const Point& p) { return lhs < p.time; });
  if (it != points_.begin()) --it;
  for (; it != points_.end(); ++it) {
    const TimePoint seg_start = std::max(it->time, t0);
    const TimePoint seg_end =
        (std::next(it) == points_.end()) ? t1
                                         : std::min(std::next(it)->time, t1);
    if (seg_start >= t1) break;
    if (seg_end > seg_start && it->value > threshold) {
      acc += seg_end - seg_start;
    }
  }
  return acc;
}

}  // namespace sg
