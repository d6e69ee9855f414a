#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

namespace sg {
namespace {

TEST(RngTest, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, ReseedRestartsStream) {
  Rng a(7);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 10; ++i) first.push_back(a.next_u64());
  a.reseed(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.next_u64(), first[static_cast<std::size_t>(i)]);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformMeanNearHalf) {
  Rng rng(5);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform(-3.0, 7.0);
    ASSERT_GE(v, -3.0);
    ASSERT_LT(v, 7.0);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t v = rng.uniform_int(2, 5);
    ASSERT_GE(v, 2);
    ASSERT_LE(v, 5);
    saw_lo = saw_lo || v == 2;
    saw_hi = saw_hi || v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ExponentialMeanMatches) {
  Rng rng(13);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(250.0);
  EXPECT_NEAR(sum / n, 250.0, 5.0);
}

TEST(RngTest, ExponentialNonNegative) {
  Rng rng(15);
  for (int i = 0; i < 10000; ++i) ASSERT_GE(rng.exponential(1.0), 0.0);
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(17);
  const int n = 200000;
  double sum = 0, sq = 0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.02);
}

TEST(RngTest, NormalShiftScale) {
  Rng rng(19);
  const int n = 100000;
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(RngTest, LognormalMeanParameterization) {
  // mu = log(mean) - sigma^2 / 2 gives the target mean (the application's
  // work draws solve mu this way).
  Rng rng(21);
  const int n = 200000;
  const double mu = std::log(300.0) - 0.5 * 0.25 * 0.25;
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += rng.lognormal(mu, 0.25);
  EXPECT_NEAR(sum / n, 300.0, 3.0);
}

TEST(RngTest, LognormalStrictlyPositive) {
  Rng rng(23);
  const double mu = std::log(100.0) - 0.5 * 0.5 * 0.5;
  for (int i = 0; i < 10000; ++i) ASSERT_GT(rng.lognormal(mu, 0.5), 0.0);
}

TEST(RngTest, LognormalWithHoistedMuMatchesMeanFormulaBitwise) {
  // The application solves mu once per service; each draw must equal the
  // formerly per-draw formula, exp((log(mean) - 0.5 sigma^2) +
  // sigma * normal()), bit for bit.
  for (const auto& [mean, sigma] : {std::pair{200'000.0, 0.25},
                                    std::pair{37.5, 0.9},
                                    std::pair{1.0, 0.0}}) {
    Rng a(29);
    Rng b(29);
    const double mu = std::log(mean) - 0.5 * sigma * sigma;
    for (int i = 0; i < 10000; ++i) {
      const double formula =
          std::exp((std::log(mean) - 0.5 * sigma * sigma) + sigma * b.normal());
      ASSERT_EQ(a.lognormal(mu, sigma), formula) << mean << " draw " << i;
    }
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(25);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(31);
  Rng b = a.fork();
  // The fork advanced a; the two streams should not track each other.
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, ForkIsDeterministic) {
  Rng a(33), b(33);
  Rng fa = a.fork(), fb = b.fork();
  for (int i = 0; i < 100; ++i) ASSERT_EQ(fa.next_u64(), fb.next_u64());
}

}  // namespace
}  // namespace sg
