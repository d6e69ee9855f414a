// execMetric (eq. 2), queueBuildup (eq. 3), the metrics bus, and the
// sensitivity tracker (Design Feature #3).
#include <gtest/gtest.h>

#include "metrics/container_metrics.hpp"
#include "metrics/metrics_bus.hpp"
#include "metrics/sensitivity.hpp"

namespace sg {
namespace {

// A visit record from raw nanosecond timestamps.
VisitRecord visit(std::int64_t arrive, std::int64_t depart,
                  std::int64_t conn_wait, bool hint = false) {
  VisitRecord r;
  r.container = 1;
  r.arrive = TimePoint{arrive};
  r.depart = TimePoint{depart};
  r.conn_wait = Duration{conn_wait};
  r.time_from_start = Duration{arrive};
  r.upscale_hint = hint;
  return r;
}

TEST(VisitRecordTest, DerivedMetrics) {
  const VisitRecord r = visit(100, 600, 200);
  EXPECT_EQ(r.exec_time(), Duration::ns(500));
  EXPECT_EQ(r.exec_metric(), Duration::ns(300));  // eq. 2: execTime - connWait
}

TEST(ContainerMetricsTest, WindowAverages) {
  ContainerRuntimeMetrics m(1);
  m.record_visit(visit(0, 1000, 0));
  m.record_visit(visit(0, 3000, 0));
  const MetricsSnapshot s = m.flush(TimePoint{5000});
  EXPECT_EQ(s.visits, 2);
  EXPECT_DOUBLE_EQ(s.avg_exec_time_ns, 2000.0);
  EXPECT_DOUBLE_EQ(s.avg_exec_metric_ns, 2000.0);
  EXPECT_DOUBLE_EQ(s.queue_buildup, 1.0);  // no conn wait
  EXPECT_EQ(s.window_end, TimePoint{5000});
  EXPECT_TRUE(s.valid());
}

TEST(ContainerMetricsTest, QueueBuildupFromConnWait) {
  ContainerRuntimeMetrics m(1);
  // execTime 1000, of which 600 waiting for a connection.
  m.record_visit(visit(0, 1000, 600));
  const MetricsSnapshot s = m.flush(TimePoint{1});
  EXPECT_DOUBLE_EQ(s.avg_exec_metric_ns, 400.0);
  EXPECT_DOUBLE_EQ(s.queue_buildup, 2.5);  // eq. 3: 1000/400
}

TEST(ContainerMetricsTest, FlushResetsWindow) {
  ContainerRuntimeMetrics m(1);
  m.record_visit(visit(0, 1000, 0));
  m.flush(TimePoint{1});
  const MetricsSnapshot s2 = m.flush(TimePoint{2});
  EXPECT_EQ(s2.visits, 0);
  EXPECT_FALSE(s2.valid());
  EXPECT_DOUBLE_EQ(s2.queue_buildup, 1.0);
}

TEST(ContainerMetricsTest, HintLatchesWithinWindow) {
  ContainerRuntimeMetrics m(1);
  m.record_visit(visit(0, 10, 0, true));
  m.record_visit(visit(0, 10, 0, false));
  EXPECT_TRUE(m.flush(TimePoint{1}).upscale_hint_received);
  m.record_visit(visit(0, 10, 0, false));
  // Cleared by flush.
  EXPECT_FALSE(m.flush(TimePoint{2}).upscale_hint_received);
}

TEST(ContainerMetricsTest, DegenerateExecMetricClamped) {
  ContainerRuntimeMetrics m(1);
  // All time spent waiting: execMetric ~ 0 -> queueBuildup clamps large.
  m.record_visit(visit(0, 1000, 1000));
  const MetricsSnapshot s = m.flush(TimePoint{1});
  EXPECT_GE(s.queue_buildup, 1e5);
}

TEST(ContainerMetricsTest, LifetimeAveragesSurviveFlush) {
  ContainerRuntimeMetrics m(1);
  m.record_visit(visit(0, 1000, 0));
  m.flush(TimePoint{1});
  m.record_visit(visit(0, 3000, 0));
  m.flush(TimePoint{2});
  EXPECT_EQ(m.total_visits(), 2u);
  EXPECT_DOUBLE_EQ(m.lifetime_avg_exec_metric_ns(), 2000.0);
}

TEST(MetricsBusTest, PublishAndRead) {
  MetricsBus bus;
  EXPECT_FALSE(bus.latest(1).has_value());
  MetricsSnapshot s;
  s.container = 1;
  s.window_end = TimePoint{100};
  s.visits = 5;
  bus.publish(s);
  const auto got = bus.latest(1);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->visits, 5);
}

TEST(MetricsBusTest, LatestOverwrites) {
  MetricsBus bus;
  MetricsSnapshot s;
  s.container = 1;
  s.window_end = TimePoint{100};
  bus.publish(s);
  s.window_end = TimePoint{200};
  bus.publish(s);
  EXPECT_EQ(bus.latest(1)->window_end, TimePoint{200});
}

TEST(MetricsPlaneTest, PerNodeBuses) {
  MetricsPlane plane(2);
  MetricsSnapshot s;
  s.container = 9;
  plane.node_bus(0).publish(s);
  EXPECT_TRUE(plane.node_bus(0).latest(9).has_value());
  EXPECT_FALSE(plane.node_bus(1).latest(9).has_value());
  EXPECT_EQ(plane.node_count(), 2u);
}

TEST(SensitivityTest, UnobservedCellsReturnNullopt) {
  SensitivityTracker t;
  EXPECT_FALSE(t.exec_avg(1, 2).has_value());
  EXPECT_FALSE(t.sensitivity(1, 2).has_value());
  EXPECT_EQ(t.cells(), 0u);
}

TEST(SensitivityTest, EwmaWithPaperAlpha) {
  SensitivityTracker t(0.5);
  t.observe(1, 2, 100.0);
  t.observe(1, 2, 200.0);
  EXPECT_DOUBLE_EQ(t.exec_avg(1, 2).value(), 150.0);
}

TEST(SensitivityTest, SensitivityFormula) {
  // sens[c][n] = 1 - execAvg[n+1]/execAvg[n] (paper III-C).
  SensitivityTracker t;
  t.observe(1, 2, 1000.0);
  t.observe(1, 3, 600.0);
  EXPECT_DOUBLE_EQ(t.sensitivity(1, 2).value(), 0.4);
}

TEST(SensitivityTest, FlatCurveSensitivityNearZero) {
  SensitivityTracker t;
  t.observe(1, 4, 500.0);
  t.observe(1, 5, 498.0);
  EXPECT_NEAR(t.sensitivity(1, 4).value(), 0.004, 1e-9);
  EXPECT_TRUE(t.revocation_candidate(1, 5, 0.02));
}

TEST(SensitivityTest, SteepCurveNotRevoked) {
  SensitivityTracker t;
  t.observe(1, 1, 2000.0);
  t.observe(1, 2, 1000.0);
  EXPECT_FALSE(t.revocation_candidate(1, 2, 0.02));
}

TEST(SensitivityTest, NeverRevokeLastCore) {
  SensitivityTracker t;
  t.observe(1, 0, 100.0);
  t.observe(1, 1, 100.0);
  EXPECT_FALSE(t.revocation_candidate(1, 1, 0.02));
}

TEST(SensitivityTest, RevocationNeedsObservedCells) {
  SensitivityTracker t;
  t.observe(1, 4, 500.0);  // execAvg[3] unknown
  EXPECT_FALSE(t.revocation_candidate(1, 4, 0.02));
}

TEST(SensitivityTest, UnknownDefaultsToOptimistic) {
  SensitivityTracker t;
  EXPECT_DOUBLE_EQ(t.sensitivity_or(1, 3, 0.5), 0.5);
  t.observe(1, 3, 1000.0);
  t.observe(1, 4, 900.0);
  EXPECT_NEAR(t.sensitivity_or(1, 3, 0.5), 0.1, 1e-9);
}

TEST(SensitivityTest, IgnoresDegenerateObservations) {
  SensitivityTracker t;
  t.observe(1, 2, 0.0);    // non-positive exec ignored
  t.observe(1, -1, 5.0);   // negative cores ignored
  EXPECT_EQ(t.cells(), 0u);
}

TEST(SensitivityTest, PerContainerIsolation) {
  SensitivityTracker t;
  t.observe(1, 2, 1000.0);
  t.observe(2, 2, 5000.0);
  EXPECT_DOUBLE_EQ(t.exec_avg(1, 2).value(), 1000.0);
  EXPECT_DOUBLE_EQ(t.exec_avg(2, 2).value(), 5000.0);
}

}  // namespace
}  // namespace sg
