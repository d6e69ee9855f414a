#include "common/histogram.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace sg {
namespace {

TEST(HistogramTest, EmptyHistogram) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), Duration{0});
  EXPECT_EQ(h.max(), Duration{0});
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(50), Duration{0});
}

TEST(HistogramTest, SingleSample) {
  LatencyHistogram h;
  h.record(Duration{1'000'000});
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), Duration{1'000'000});
  EXPECT_EQ(h.max(), Duration{1'000'000});
  // Bucketed value within the relative error bound.
  EXPECT_NEAR(static_cast<double>(h.p50().ns()), 1e6, 1e6 * 0.04);
}

TEST(HistogramTest, MeanIsExact) {
  // The mean is tracked outside the buckets, so it has no bucketing error.
  LatencyHistogram h;
  h.record(Duration{100});
  h.record(Duration{300});
  EXPECT_DOUBLE_EQ(h.mean(), 200.0);
}

TEST(HistogramTest, RecordNWeights) {
  LatencyHistogram h;
  h.record_n(Duration{1000}, 99);
  h.record_n(Duration{100000}, 1);
  EXPECT_EQ(h.count(), 100u);
  // p50 in the 1000 bucket, p99.5 near 100000.
  EXPECT_NEAR(static_cast<double>(h.p50().ns()), 1000, 1000 * 0.05);
  EXPECT_NEAR(static_cast<double>(h.percentile(99.9).ns()), 100000,
              100000 * 0.05);
}

TEST(HistogramTest, PercentileMonotone) {
  LatencyHistogram h;
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    h.record(Duration{static_cast<std::int64_t>(rng.uniform(100.0, 1e7))});
  }
  Duration prev;
  for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 98.0, 99.0, 99.9}) {
    const Duration v = h.percentile(p);
    EXPECT_GE(v, prev) << "p" << p;
    prev = v;
  }
}

TEST(HistogramTest, PercentileRelativeErrorBounded) {
  // Uniform known distribution: p50 of U[0, 10ms] ~ 5ms within bucket error.
  LatencyHistogram h;
  Rng rng(2);
  for (int i = 0; i < 200000; ++i) {
    h.record(Duration{static_cast<std::int64_t>(rng.uniform(0.0, 1e7))});
  }
  EXPECT_NEAR(static_cast<double>(h.p50().ns()), 5e6, 5e6 * 0.05);
  EXPECT_NEAR(static_cast<double>(h.percentile(90.0).ns()), 9e6, 9e6 * 0.05);
}

TEST(HistogramTest, ClampsTinyValues) {
  LatencyHistogram h;
  h.record(Duration{0});
  h.record(Duration{-5});  // degenerate inputs clamp to the first bucket
  EXPECT_EQ(h.count(), 2u);
  EXPECT_GE(h.min(), Duration{1});
}

TEST(HistogramTest, ExtremePercentilesReturnEdges) {
  LatencyHistogram h;
  for (std::int64_t v : {100, 200, 400, 800}) h.record(Duration{v});
  EXPECT_LE(h.percentile(0.0), h.percentile(100.0));
  EXPECT_LE(h.percentile(100.0), h.max());
  EXPECT_GE(h.percentile(0.0), h.min());
}

// Property sweep: percentile(100) == max bucket and ordering holds for
// several distributions.
class HistogramPropertyTest : public ::testing::TestWithParam<double> {};

TEST_P(HistogramPropertyTest, OrderAndBounds) {
  LatencyHistogram h;
  Rng rng(static_cast<std::uint64_t>(GetParam() * 1000));
  for (int i = 0; i < 20000; ++i) {
    h.record(Duration{static_cast<std::int64_t>(rng.exponential(GetParam()))});
  }
  EXPECT_LE(h.p50(), h.p98());
  EXPECT_LE(h.p98(), h.p99());
  EXPECT_LE(h.p99(), h.max());
  EXPECT_GE(h.p50(), h.min());
}

INSTANTIATE_TEST_SUITE_P(Means, HistogramPropertyTest,
                         ::testing::Values(1e3, 1e4, 1e5, 1e6, 1e7, 1e8));

}  // namespace
}  // namespace sg
