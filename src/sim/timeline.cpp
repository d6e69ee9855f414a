#include "sim/timeline.hpp"

#include "common/assert.hpp"

namespace sg {

namespace {

/// Calls `add(value, length)` for each segment of `points` clipped to
/// [t0, t1] that has a positive length, in time order.
template <typename Add>
void for_each_segment(const std::vector<StepTimeline::Point>& points,
                      TimePoint t0, TimePoint t1, Add add) {
  if (t1 <= t0) return;
  // Start at the segment in effect at t0.
  auto it = std::upper_bound(
      points.begin(), points.end(), t0,
      [](TimePoint lhs, const auto& p) { return lhs < p.time; });
  if (it != points.begin()) --it;
  for (; it != points.end(); ++it) {
    const TimePoint seg_start = std::max(it->time, t0);
    const TimePoint seg_end =
        (std::next(it) == points.end()) ? t1
                                        : std::min(std::next(it)->time, t1);
    if (seg_start >= t1) break;
    if (seg_end > seg_start) add(it->value, seg_end - seg_start);
  }
}

}  // namespace

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
  double acc = 0.0;
  for_each_segment(points_, t0, t1, [&](double value, Duration len) {
    acc += value * static_cast<double>(len.ns());
  });
  return acc;
}

double StepTimeline::average(TimePoint t0, TimePoint t1) const {
  if (t1 <= t0) return at(t0);
  return integrate(t0, t1) / static_cast<double>((t1 - t0).ns());
}

double StepTimeline::integrate_above(TimePoint t0, TimePoint t1,
                                     double threshold) const {
  double acc = 0.0;
  for_each_segment(points_, t0, t1, [&](double value, Duration len) {
    const double excess = value - threshold;
    if (excess > 0.0) acc += excess * static_cast<double>(len.ns());
  });
  return acc;
}

Duration StepTimeline::time_above(TimePoint t0, TimePoint t1,
                                  double threshold) const {
  Duration acc;
  for_each_segment(points_, t0, t1, [&](double value, Duration len) {
    if (value > threshold) acc += len;
  });
  return acc;
}

}  // namespace sg
