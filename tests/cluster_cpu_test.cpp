#include "cluster/cpu.hpp"

#include <gtest/gtest.h>

namespace sg {
namespace {

TEST(DvfsTest, QuantizeClampsToRange) {
  DvfsModel d;
  EXPECT_EQ(d.quantize(100), d.min_mhz);
  EXPECT_EQ(d.quantize(99999), d.max_mhz);
}

TEST(DvfsTest, QuantizeSnapsDown) {
  DvfsModel d;  // min 1600, step 100
  EXPECT_EQ(d.quantize(1600), 1600);
  EXPECT_EQ(d.quantize(1649), 1600);
  EXPECT_EQ(d.quantize(1650), 1600);
  EXPECT_EQ(d.quantize(1700), 1700);
  EXPECT_EQ(d.quantize(1799), 1700);
}

TEST(DvfsTest, SpeedIsOneAtReference) {
  DvfsModel d;
  EXPECT_DOUBLE_EQ(d.speed(d.ref_mhz), 1.0);
}

TEST(DvfsTest, SpeedSubLinearInFrequency) {
  DvfsModel d;  // scaling_efficiency 0.55
  const double full_ratio =
      static_cast<double>(d.max_mhz) / static_cast<double>(d.ref_mhz);
  const double speed = d.speed(d.max_mhz);
  EXPECT_GT(speed, 1.0);
  EXPECT_LT(speed, full_ratio);  // sub-linear
  EXPECT_NEAR(speed, 1.0 + 0.55 * (full_ratio - 1.0), 1e-12);
}

TEST(DvfsTest, SpeedMonotoneInFrequency) {
  DvfsModel d;
  double prev = 0.0;
  for (FreqMhz f = d.min_mhz; f <= d.max_mhz; f += d.step_mhz) {
    const double s = d.speed(f);
    EXPECT_GT(s, prev);
    prev = s;
  }
}

TEST(DvfsTest, FullLinearScalingWhenEfficiencyOne) {
  DvfsModel d;
  d.scaling_efficiency = 1.0;
  EXPECT_DOUBLE_EQ(d.speed(3200), 2.0);
}

}  // namespace
}  // namespace sg
