#include "workload/violation_volume.hpp"

#include <gtest/gtest.h>

namespace sg {
namespace {

using namespace sg::literals;

// The instant `d` after the simulation origin.
TimePoint at(Duration d) { return TimePoint::at(d); }

TEST(ViolationVolumeTest, NoCompletionsNoVolume) {
  ViolationVolumeTracker vv(1_ms, 1_ms);
  vv.finalize(at(10_ms));
  EXPECT_DOUBLE_EQ(vv.violation_volume_ns2(at(0_ns), at(10_ms)), 0.0);
  EXPECT_DOUBLE_EQ(vv.violation_duration_fraction(at(0_ns), at(10_ms)), 0.0);
}

TEST(ViolationVolumeTest, AllBelowQosIsZero) {
  ViolationVolumeTracker vv(10_ms, 1_ms);
  for (int i = 0; i < 20; ++i) {
    vv.record_completion(at(i * 1_ms), 2_ms);
  }
  vv.finalize(at(20_ms));
  EXPECT_DOUBLE_EQ(vv.violation_volume_ns2(at(0_ns), at(20_ms)), 0.0);
}

TEST(ViolationVolumeTest, ConstantViolationArea) {
  // Latency 3ms vs QoS 1ms over 10ms -> area = 2ms * 10ms.
  ViolationVolumeTracker vv(1_ms, 1_ms);
  for (int i = 0; i < 10; ++i) {
    vv.record_completion(at(i * 1_ms + 1_ns), 3_ms);
  }
  vv.finalize(at(10_ms));
  const double expected =
      static_cast<double>((2_ms).ns()) * static_cast<double>((10_ms).ns());
  EXPECT_NEAR(vv.violation_volume_ns2(at(0_ns), at(10_ms)), expected,
              expected * 0.01);
}

TEST(ViolationVolumeTest, MsSecondsUnits) {
  ViolationVolumeTracker vv(1_ms, 1_ms);
  for (int i = 0; i < 1000; ++i) {
    vv.record_completion(at(i * 1_ms + 1_ns), 2_ms);
  }
  vv.finalize(at(1_s));
  // 1ms excess for 1s = 1 ms*s.
  EXPECT_NEAR(vv.violation_volume_ms_s(at(0_ns), at(1_s)), 1.0, 0.01);
}

TEST(ViolationVolumeTest, WindowMeansUsed) {
  // Two completions in one window: 0 and 4ms (mean 2ms) vs QoS 1ms.
  ViolationVolumeTracker vv(1_ms, 10_ms);
  vv.record_completion(at(1_ms), Duration::zero());
  vv.record_completion(at(2_ms), 4_ms);
  vv.finalize(at(10_ms));
  const double expected =
      static_cast<double>((1_ms).ns()) * static_cast<double>((10_ms).ns());
  EXPECT_NEAR(vv.violation_volume_ns2(at(0_ns), at(10_ms)), expected,
              expected * 0.01);
}

TEST(ViolationVolumeTest, EmptyWindowHoldsPreviousValue) {
  ViolationVolumeTracker vv(1_ms, 1_ms);
  vv.record_completion(at(500_us), 5_ms);  // window [0,1ms): value 5ms
  // silence until 10ms, then a fast completion
  vv.record_completion(at(10_ms + 1_ns), Duration::zero());
  vv.finalize(at(11_ms));
  // The 5ms value holds through the silent stretch [0,10ms) -> 4ms excess.
  const double expected =
      static_cast<double>((4_ms).ns()) * static_cast<double>((10_ms).ns());
  EXPECT_NEAR(vv.violation_volume_ns2(at(0_ns), at(11_ms)), expected,
              expected * 0.02);
}

TEST(ViolationVolumeTest, DurationFraction) {
  ViolationVolumeTracker vv(1_ms, 1_ms);
  // Violating for the first 5 windows, fine for the next 5.
  for (int i = 0; i < 5; ++i) vv.record_completion(at(i * 1_ms + 1_ns), 3_ms);
  for (int i = 5; i < 10; ++i) {
    vv.record_completion(at(i * 1_ms + 1_ns), 100_us);
  }
  vv.finalize(at(10_ms));
  EXPECT_NEAR(vv.violation_duration_fraction(at(0_ns), at(10_ms)), 0.5, 0.05);
}

TEST(ViolationVolumeTest, SubRangeQuery) {
  ViolationVolumeTracker vv(1_ms, 1_ms);
  for (int i = 0; i < 10; ++i) vv.record_completion(at(i * 1_ms + 1_ns), 3_ms);
  vv.finalize(at(10_ms));
  const double whole = vv.violation_volume_ns2(at(0_ns), at(10_ms));
  const double first = vv.violation_volume_ns2(at(0_ns), at(5_ms));
  const double second = vv.violation_volume_ns2(at(5_ms), at(10_ms));
  EXPECT_NEAR(first + second, whole, whole * 1e-9);
}

TEST(ViolationVolumeTest, FigThreeShape) {
  // Paper Fig. 3: a short tall excursion (red) can have LOWER violation
  // volume than a long shallow one (blue) despite higher tail latency.
  ViolationVolumeTracker red(1_ms, 1_ms), blue(1_ms, 1_ms);
  // red: 10ms latency for 2ms of time, then fine.
  for (int i = 0; i < 2; ++i) red.record_completion(at(i * 1_ms + 1_ns), 10_ms);
  for (int i = 2; i < 20; ++i) {
    red.record_completion(at(i * 1_ms + 1_ns), 500_us);
  }
  // blue: 3ms latency for 18ms of time.
  for (int i = 0; i < 18; ++i) {
    blue.record_completion(at(i * 1_ms + 1_ns), 3_ms);
  }
  for (int i = 18; i < 20; ++i) {
    blue.record_completion(at(i * 1_ms + 1_ns), 500_us);
  }
  red.finalize(at(20_ms));
  blue.finalize(at(20_ms));
  const double vv_red = red.violation_volume_ns2(at(0_ns), at(20_ms));
  const double vv_blue = blue.violation_volume_ns2(at(0_ns), at(20_ms));
  EXPECT_LT(vv_red, vv_blue);  // VV red < VV blue...
  // ...even though red's peak latency is higher (the tail-latency metric
  // would rank them the other way).
}

TEST(ViolationVolumeTest, CompletionOrderEnforced) {
  ViolationVolumeTracker vv(1_ms, 1_ms);
  vv.record_completion(at(5_ms), 1_ms);
  EXPECT_DEATH(vv.record_completion(at(1_ms), 1_ms), "time-ordered");
}

}  // namespace
}  // namespace sg
