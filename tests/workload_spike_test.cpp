#include "workload/spike.hpp"

#include <gtest/gtest.h>

namespace sg {
namespace {

using namespace sg::literals;

// The instant `d` after the simulation origin.
TimePoint at(Duration d) { return TimePoint::at(d); }

TEST(SpikeTest, SteadyPatternHasNoSpikes) {
  const SpikePattern p = SpikePattern::steady(1000);
  EXPECT_FALSE(p.has_spikes());
  EXPECT_DOUBLE_EQ(p.rate_at(at(0_ns)), 1000.0);
  EXPECT_DOUBLE_EQ(p.rate_at(at(100 * kSecond)), 1000.0);
  EXPECT_EQ(p.next_rate_change(at(0_ns)), TimePoint::infinity());
  EXPECT_TRUE(p.spikes_in(at(0_ns), at(100 * kSecond)).empty());
}

TEST(SpikeTest, SurgeFactoryFields) {
  const SpikePattern p = SpikePattern::surges(1000, 1.75, 2_s, 10_s, at(5_s));
  EXPECT_TRUE(p.has_spikes());
  EXPECT_DOUBLE_EQ(p.spike_rate_rps, 1750.0);
}

TEST(SpikeTest, RateDuringAndOutsideSpike) {
  const SpikePattern p = SpikePattern::surges(1000, 2.0, 2_s, 10_s, at(5_s));
  EXPECT_DOUBLE_EQ(p.rate_at(at(4_s)), 1000.0);
  EXPECT_DOUBLE_EQ(p.rate_at(at(5_s)), 2000.0);   // spike start inclusive
  EXPECT_DOUBLE_EQ(p.rate_at(TimePoint{6'999'999'999}), 2000.0);
  EXPECT_DOUBLE_EQ(p.rate_at(at(7_s)), 1000.0);   // spike end exclusive
  EXPECT_DOUBLE_EQ(p.rate_at(at(15_s)), 2000.0);  // next period
}

TEST(SpikeTest, InSpikeBeforeFirst) {
  const SpikePattern p = SpikePattern::surges(1000, 2.0, 2_s, 10_s, at(5_s));
  EXPECT_FALSE(p.in_spike(at(0_ns)));
  EXPECT_FALSE(p.in_spike(TimePoint{4'999'999'999}));
}

TEST(SpikeTest, NextRateChangeBoundaries) {
  const SpikePattern p = SpikePattern::surges(1000, 2.0, 2_s, 10_s, at(5_s));
  EXPECT_EQ(p.next_rate_change(at(0_ns)), at(5_s));
  EXPECT_EQ(p.next_rate_change(at(5_s)), at(7_s));  // inside: its end
  EXPECT_EQ(p.next_rate_change(at(6_s)), at(7_s));
  EXPECT_EQ(p.next_rate_change(at(7_s)), at(15_s));  // after: next start
  EXPECT_EQ(p.next_rate_change(TimePoint{14'999'999'999}), at(15_s));
}

TEST(SpikeTest, NextRateChangeStrictlyAfter) {
  const SpikePattern p = SpikePattern::surges(1000, 2.0, 2_s, 10_s, at(5_s));
  TimePoint t;
  for (int i = 0; i < 10; ++i) {
    const TimePoint next = p.next_rate_change(t);
    ASSERT_GT(next, t);
    t = next;
  }
}

TEST(SpikeTest, SpikesInWindow) {
  const SpikePattern p = SpikePattern::surges(1000, 2.0, 2_s, 10_s, at(5_s));
  const auto windows = p.spikes_in(at(0_ns), at(30_s));
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows[0].start, at(5_s));
  EXPECT_EQ(windows[0].end, at(7_s));
  EXPECT_EQ(windows[1].start, at(15_s));
  EXPECT_EQ(windows[2].start, at(25_s));
}

TEST(SpikeTest, SpikesInPartialOverlap) {
  const SpikePattern p = SpikePattern::surges(1000, 2.0, 2_s, 10_s, at(5_s));
  // Window [6s, 16s): catches the tail of spike 1 and the head of spike 2.
  const auto windows = p.spikes_in(at(6_s), at(16_s));
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0].start, at(5_s));
  EXPECT_EQ(windows[1].start, at(15_s));
}

TEST(SpikeTest, MicrosecondSpikes) {
  // Fig. 10 scale: 100us spikes at 20x.
  using namespace sg::literals;
  const SpikePattern p =
      SpikePattern::surges(10000, 20.0, 100_us, 1_s, at(1_s));
  EXPECT_DOUBLE_EQ(p.rate_at(at(1_s + 50_us)), 200000.0);
  EXPECT_DOUBLE_EQ(p.rate_at(at(1_s + 150_us)), 10000.0);
  EXPECT_EQ(p.next_rate_change(at(1_s)), at(1_s + 100_us));
}

TEST(SpikeTest, EqualRatesMeansNoSpikes) {
  SpikePattern p = SpikePattern::surges(1000, 1.0, 2_s, 10_s, at(5_s));
  EXPECT_FALSE(p.has_spikes());
  EXPECT_DOUBLE_EQ(p.rate_at(at(6_s)), 1000.0);
}

}  // namespace
}  // namespace sg
