#include "sim/timeline.hpp"

#include <gtest/gtest.h>

namespace sg {
namespace {

TEST(TimelineTest, InitialValueHoldsEverywhere) {
  StepTimeline t(5.0);
  EXPECT_DOUBLE_EQ(t.at(TimePoint{0}), 5.0);
  EXPECT_DOUBLE_EQ(t.at(TimePoint{1'000'000}), 5.0);
  EXPECT_DOUBLE_EQ(t.current(), 5.0);
}

TEST(TimelineTest, StepChangesValueFromTime) {
  StepTimeline t(1.0);
  t.set(TimePoint{100}, 3.0);
  EXPECT_DOUBLE_EQ(t.at(TimePoint{99}), 1.0);
  EXPECT_DOUBLE_EQ(t.at(TimePoint{100}), 3.0);
  EXPECT_DOUBLE_EQ(t.at(TimePoint{500}), 3.0);
  EXPECT_DOUBLE_EQ(t.current(), 3.0);
}

TEST(TimelineTest, SameTimeOverwrites) {
  StepTimeline t(0.0);
  t.set(TimePoint{100}, 1.0);
  t.set(TimePoint{100}, 2.0);
  EXPECT_DOUBLE_EQ(t.at(TimePoint{100}), 2.0);
  EXPECT_EQ(t.points().size(), 2u);
}

TEST(TimelineTest, RedundantTransitionsCollapse) {
  StepTimeline t(2.0);
  t.set(TimePoint{50}, 2.0);  // no-op transition
  EXPECT_EQ(t.points().size(), 1u);
}

TEST(TimelineTest, IntegrateConstant) {
  StepTimeline t(4.0);
  EXPECT_DOUBLE_EQ(t.integrate(TimePoint{0}, TimePoint{100}), 400.0);
  EXPECT_DOUBLE_EQ(t.integrate(TimePoint{50}, TimePoint{150}), 400.0);
}

TEST(TimelineTest, IntegratePiecewise) {
  StepTimeline t(1.0);
  t.set(TimePoint{10}, 3.0);
  t.set(TimePoint{20}, 0.0);
  // [0,10): 1.0, [10,20): 3.0, [20,..): 0
  EXPECT_DOUBLE_EQ(t.integrate(TimePoint{0}, TimePoint{30}), 10.0 + 30.0 + 0.0);
  EXPECT_DOUBLE_EQ(t.integrate(TimePoint{5}, TimePoint{15}), 5.0 + 15.0);
  EXPECT_DOUBLE_EQ(t.integrate(TimePoint{25}, TimePoint{30}), 0.0);
}

TEST(TimelineTest, IntegrateEmptyRange) {
  StepTimeline t(9.0);
  EXPECT_DOUBLE_EQ(t.integrate(TimePoint{10}, TimePoint{10}), 0.0);
  EXPECT_DOUBLE_EQ(t.integrate(TimePoint{10}, TimePoint{5}), 0.0);
}

TEST(TimelineTest, AverageIsTimeWeighted) {
  StepTimeline t(0.0);
  t.set(TimePoint{50}, 10.0);
  // [0,50) value 0, [50,100) value 10 -> average 5 over [0,100)
  EXPECT_DOUBLE_EQ(t.average(TimePoint{0}, TimePoint{100}), 5.0);
}

TEST(TimelineTest, AverageDegenerateRange) {
  StepTimeline t(3.0);
  t.set(TimePoint{10}, 7.0);
  EXPECT_DOUBLE_EQ(t.average(TimePoint{20}, TimePoint{20}), 7.0);
}

TEST(TimelineTest, IntegrateAboveThreshold) {
  // The violation-volume primitive: area above the QoS line only.
  StepTimeline t(1.0);
  t.set(TimePoint{10}, 5.0);
  t.set(TimePoint{20}, 2.0);
  // threshold 2: [0,10) contributes 0 (1<2), [10,20) contributes (5-2)*10,
  // [20,30) contributes 0 (2 == threshold).
  EXPECT_DOUBLE_EQ(t.integrate_above(TimePoint{0}, TimePoint{30}, 2.0), 30.0);
}

TEST(TimelineTest, IntegrateAboveAllBelow) {
  StepTimeline t(1.0);
  EXPECT_DOUBLE_EQ(t.integrate_above(TimePoint{0}, TimePoint{1000}, 5.0), 0.0);
}

TEST(TimelineTest, IntegrateAbovePartialSegments) {
  StepTimeline t(10.0);
  t.set(TimePoint{100}, 0.0);
  // Query window cuts into the first segment only.
  EXPECT_DOUBLE_EQ(t.integrate_above(TimePoint{50}, TimePoint{150}, 4.0),
                   6.0 * 50);
}

TEST(TimelineTest, TimeAboveCountsOnlyStrictlyAboveSegments) {
  StepTimeline t(1600.0);           // base frequency
  t.set(TimePoint{100}, 3200.0);    // boost on
  t.set(TimePoint{300}, 1600.0);    // back to base
  t.set(TimePoint{450}, 2000.0);    // second, smaller boost
  // Strictly above base: [100, 300) and [450, ...).
  EXPECT_EQ(t.time_above(TimePoint{0}, TimePoint{500}, 1600.0),
            Duration{250});
  // Window clipping on both sides.
  EXPECT_EQ(t.time_above(TimePoint{150}, TimePoint{250}, 1600.0),
            Duration{100});
  EXPECT_EQ(t.time_above(TimePoint{200}, TimePoint{460}, 1600.0),
            Duration{110});
  // Threshold above every value: nothing counts; at-threshold is not above.
  EXPECT_EQ(t.time_above(TimePoint{0}, TimePoint{500}, 3200.0), Duration{0});
  // Degenerate/empty windows.
  EXPECT_EQ(t.time_above(TimePoint{200}, TimePoint{200}, 1600.0), Duration{0});
  EXPECT_EQ(t.time_above(TimePoint{400}, TimePoint{300}, 1600.0), Duration{0});
}

TEST(TimelineTest, TimeAboveIsAdditiveAcrossSplits) {
  StepTimeline t(1.0);
  t.set(TimePoint{100}, 7.0);
  t.set(TimePoint{250}, 1.0);
  t.set(TimePoint{400}, 9.0);
  for (const std::int64_t ns : {0, 1, 100, 101, 250, 399, 400, 500}) {
    const TimePoint split{ns};
    EXPECT_EQ(t.time_above(TimePoint{0}, split, 3.0) +
                  t.time_above(split, TimePoint{500}, 3.0),
              t.time_above(TimePoint{0}, TimePoint{500}, 3.0))
        << "split " << ns;
  }
}

// Property: integrate(a,b) + integrate(b,c) == integrate(a,c) for any split.
class TimelineSplitTest : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(TimelineSplitTest, IntegralIsAdditive) {
  StepTimeline t(2.0);
  t.set(TimePoint{100}, 7.0);
  t.set(TimePoint{250}, 1.0);
  t.set(TimePoint{400}, 9.0);
  const TimePoint split{GetParam()};
  EXPECT_DOUBLE_EQ(t.integrate(TimePoint{0}, split) +
                       t.integrate(split, TimePoint{500}),
                   t.integrate(TimePoint{0}, TimePoint{500}));
  EXPECT_DOUBLE_EQ(
      t.integrate_above(TimePoint{0}, split, 3.0) +
          t.integrate_above(split, TimePoint{500}, 3.0),
      t.integrate_above(TimePoint{0}, TimePoint{500}, 3.0));
}

INSTANTIATE_TEST_SUITE_P(Splits, TimelineSplitTest,
                         ::testing::Values(0, 1, 99, 100, 101, 250, 399, 400,
                                           499, 500));

}  // namespace
}  // namespace sg
