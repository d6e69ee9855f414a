#include "common/stats.hpp"

#include <gtest/gtest.h>

namespace sg {
namespace {

TEST(StatsTest, MeanBasics) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(mean({5.0}), 5.0);
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(StatsTest, TrimmedMeanDropsExtremes) {
  // The paper's protocol: 17 points, drop best and worst, average 15.
  std::vector<double> xs;
  for (int i = 0; i < 15; ++i) xs.push_back(10.0);
  xs.push_back(1000.0);  // outlier high
  xs.push_back(0.001);   // outlier low
  EXPECT_DOUBLE_EQ(trimmed_mean(xs, 1), 10.0);
}

TEST(StatsTest, TrimmedMeanFallsBackWhenOvertrimmed) {
  EXPECT_DOUBLE_EQ(trimmed_mean({1.0, 2.0}, 1), 1.5);
  EXPECT_DOUBLE_EQ(trimmed_mean({7.0}, 3), 7.0);
}

TEST(StatsTest, TrimmedMeanZeroTrimIsMean) {
  EXPECT_DOUBLE_EQ(trimmed_mean({1.0, 2.0, 3.0}, 0), 2.0);
}

}  // namespace
}  // namespace sg
