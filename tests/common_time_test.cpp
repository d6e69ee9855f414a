#include "common/time.hpp"

#include <type_traits>

#include <gtest/gtest.h>

namespace sg {
namespace {

using namespace sg::literals;

static_assert(std::is_same_v<decltype(5_ms), Duration>);
static_assert(std::is_same_v<decltype(kSecond), const Duration>);

TEST(TimeTest, LiteralsScale) {
  EXPECT_EQ((1_ns).ns(), 1);
  EXPECT_EQ((1_us).ns(), 1'000);
  EXPECT_EQ((1_ms).ns(), 1'000'000);
  EXPECT_EQ((1_s).ns(), 1'000'000'000);
  EXPECT_EQ(2_s + 500_ms, Duration{2'500'000'000});
}

TEST(TimeTest, IntegerScalarsAreExact) {
  // A plain int binds to the integer-scalar operators (no int64/double tie).
  EXPECT_EQ(3 * 5_ms, 15_ms);
  EXPECT_EQ(5_ms * 3, 15_ms);
  EXPECT_EQ(Duration{7} * std::int64_t{3}, Duration{21});
  EXPECT_EQ(Duration{7} / 2, Duration{3});
  EXPECT_EQ(Duration{-7} / 2, Duration{-3});
}

TEST(TimeTest, ConversionsRoundTrip) {
  EXPECT_DOUBLE_EQ((1_s).seconds(), 1.0);
  EXPECT_DOUBLE_EQ((1_s).millis(), 1000.0);
  EXPECT_DOUBLE_EQ((1_ms).micros(), 1000.0);
  EXPECT_EQ(Duration::seconds(1.5).ns(), 1'500'000'000);
  EXPECT_EQ(Duration::seconds(Duration{123'456'789}.seconds()).ns(),
            123'456'789);
}

TEST(TimeTest, FromSecondsRounds) {
  EXPECT_EQ(Duration::seconds(0.0000000015).ns(), 2);
  EXPECT_EQ(Duration::seconds(1.5e-9).ns(), 2);
}

TEST(TimeTest, FromSecondsRoundsNegativeHalfAwayFromZero) {
  // Symmetric rounding: -1.5 ns -> -2 ns, mirroring +1.5 ns -> +2 ns.
  // (A plain `+ 0.5` form would truncate toward +inf for negative slacks.)
  EXPECT_EQ(Duration::seconds(-1.5e-9).ns(), -2);
  EXPECT_EQ(Duration::seconds(-0.0000000014).ns(), -1);
  EXPECT_EQ(Duration::seconds(-0.0000000016).ns(), -2);
  EXPECT_EQ(Duration::seconds(-1.5).ns(), -1'500'000'000);
  EXPECT_EQ(Duration::seconds(-Duration{123'456'789}.seconds()).ns(),
            -123'456'789);
  EXPECT_EQ(Duration::seconds(0.0).ns(), 0);
}

TEST(TimeTest, FormatPicksUnits) {
  EXPECT_EQ(format_time(Duration::zero()), "0ns");
  EXPECT_EQ(format_time(500_ns), "500ns");
  EXPECT_EQ(format_time(999_ns), "999ns");
  EXPECT_EQ(format_time(1_us), "1.00us");
  EXPECT_EQ(format_time(Duration{1'500}), "1.50us");
  EXPECT_EQ(format_time(Duration{999'999}), "1000.00us");
  EXPECT_EQ(format_time(Duration{2'500'000}), "2.50ms");
  EXPECT_EQ(format_time(Duration{3'250'000'000}), "3.250s");
  EXPECT_EQ(format_time(Duration::infinity()), "9223372036.855s");
}

TEST(TimeTest, FormatNegative) {
  EXPECT_EQ(format_time(Duration{-1'500}), "-1.50us");
  EXPECT_EQ(format_time(Duration{-2'500'000}), "-2.50ms");
}

TEST(TimeTest, InfinityIsMax) {
  EXPECT_EQ(Duration::infinity().ns(), INT64_MAX);
  EXPECT_EQ(TimePoint::infinity().ns(), INT64_MAX);
  EXPECT_GT(Duration::infinity(), 1000000 * kSecond);
}

// --- quantity layer (DESIGN.md §8) ---

TEST(QuantityTest, DurationFactoriesAndAccessors) {
  EXPECT_EQ(Duration::ns(7).ns(), 7);
  EXPECT_EQ(Duration::us(3).ns(), 3'000);
  EXPECT_EQ(Duration::ms(5).ns(), 5'000'000);
  EXPECT_EQ(Duration::sec(2).ns(), 2'000'000'000);
  EXPECT_EQ(Duration::seconds(1.5).ns(), 1'500'000'000);
  EXPECT_EQ(Duration::seconds(-1.5).ns(), -1'500'000'000);
  EXPECT_DOUBLE_EQ(Duration::sec(2).seconds(), 2.0);
  EXPECT_DOUBLE_EQ(Duration::ms(2).millis(), 2.0);
  EXPECT_DOUBLE_EQ(Duration::us(2).micros(), 2.0);
  EXPECT_EQ(Duration::zero().ns(), 0);
  EXPECT_EQ(kMillisecond, Duration::ms(1));
}

TEST(QuantityTest, DurationAlgebra) {
  const Duration a = Duration::ms(3);
  const Duration b = Duration::ms(1);
  EXPECT_EQ((a + b).ns(), 4'000'000);
  EXPECT_EQ((a - b).ns(), 2'000'000);
  EXPECT_EQ((-b).ns(), -1'000'000);
  EXPECT_EQ((a * 2.0).ns(), 6'000'000);
  EXPECT_EQ((2.0 * a).ns(), 6'000'000);
  EXPECT_EQ((a * std::int64_t{2}).ns(), 6'000'000);
  EXPECT_EQ((a / 2.0).ns(), 1'500'000);
  EXPECT_DOUBLE_EQ(a / b, 3.0);
  EXPECT_EQ(Duration::ms(7) % Duration::ms(3), Duration::ms(1));
  EXPECT_LT(b, a);
  Duration acc = a;
  acc += b;
  acc -= Duration::ms(2);
  EXPECT_EQ(acc, Duration::ms(2));
}

TEST(QuantityTest, TimePointAlgebra) {
  const TimePoint t0 = TimePoint::at(10 * kMillisecond);
  const TimePoint t1 = t0 + Duration::ms(5);
  EXPECT_EQ(t1.ns(), 15'000'000);
  EXPECT_EQ((t1 - t0), Duration::ms(5));
  EXPECT_EQ((t1 - Duration::ms(15)), TimePoint::origin());
  EXPECT_EQ((Duration::ms(5) + t0), t1);
  EXPECT_EQ(t0.since_origin(), Duration::ms(10));
  EXPECT_EQ(TimePoint{10'000'000}, t0);
  EXPECT_LT(t0, t1);
  TimePoint cursor = t0;
  cursor += Duration::ms(1);
  cursor -= Duration::ms(11);
  EXPECT_EQ(cursor, TimePoint::origin());
}

TEST(QuantityTest, FormatTimeOverloads) {
  EXPECT_EQ(format_time(Duration::us(2) - Duration::ns(500)), "1.50us");
  EXPECT_EQ(format_time(TimePoint{2'500'000}.since_origin()), "2.50ms");
}

}  // namespace
}  // namespace sg
