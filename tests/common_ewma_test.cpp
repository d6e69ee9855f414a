#include "common/ewma.hpp"

#include <gtest/gtest.h>

namespace sg {
namespace {

TEST(EwmaTest, FirstSampleInitializes) {
  Ewma e(0.5);
  EXPECT_FALSE(e.initialized());
  e.add(10.0);
  EXPECT_TRUE(e.initialized());
  EXPECT_DOUBLE_EQ(e.value(), 10.0);
}

TEST(EwmaTest, PaperAlphaConvention) {
  // Paper III-C: execAvg = alpha*old + (1-alpha)*new with alpha = 0.5.
  Ewma e(0.5);
  e.add(10.0);
  e.add(20.0);
  EXPECT_DOUBLE_EQ(e.value(), 15.0);
  e.add(5.0);
  EXPECT_DOUBLE_EQ(e.value(), 10.0);
}

TEST(EwmaTest, AlphaOneFreezesValue) {
  Ewma e(1.0);
  e.add(10.0);
  e.add(999.0);
  EXPECT_DOUBLE_EQ(e.value(), 10.0);
}

TEST(EwmaTest, AlphaZeroTracksLast) {
  Ewma e(0.0);
  e.add(10.0);
  e.add(999.0);
  EXPECT_DOUBLE_EQ(e.value(), 999.0);
}

TEST(EwmaTest, ConvergesToConstantInput) {
  Ewma e(0.5);
  e.add(0.0);
  for (int i = 0; i < 60; ++i) e.add(100.0);
  EXPECT_NEAR(e.value(), 100.0, 1e-9);
}

TEST(WindowedMeanTest, EmptyWindow) {
  WindowedMean w;
  EXPECT_TRUE(w.empty());
  EXPECT_DOUBLE_EQ(w.peek(), 0.0);
  EXPECT_DOUBLE_EQ(w.take(), 0.0);
}

TEST(WindowedMeanTest, MeanOfWindow) {
  WindowedMean w;
  w.add(1.0);
  w.add(2.0);
  w.add(6.0);
  EXPECT_EQ(w.count(), 3);
  EXPECT_DOUBLE_EQ(w.peek(), 3.0);
}

TEST(WindowedMeanTest, TakeResets) {
  WindowedMean w;
  w.add(4.0);
  EXPECT_DOUBLE_EQ(w.take(), 4.0);
  EXPECT_TRUE(w.empty());
  w.add(10.0);
  EXPECT_DOUBLE_EQ(w.take(), 10.0);
}

TEST(WindowedMeanTest, PeekDoesNotReset) {
  WindowedMean w;
  w.add(4.0);
  EXPECT_DOUBLE_EQ(w.peek(), 4.0);
  EXPECT_FALSE(w.empty());
}

}  // namespace
}  // namespace sg
