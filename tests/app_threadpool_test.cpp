#include "app/threadpool.hpp"

#include <gtest/gtest.h>

namespace sg {
namespace {

// A waiter for visit `visit` that began waiting at t = `visit` ns.
ConnectionPool::Waiter waiter(std::uint64_t visit) {
  return {visit, TimePoint{static_cast<std::int64_t>(visit)}};
}

TEST(ConnectionPoolTest, GrantsWhileFree) {
  ConnectionPool pool(2);
  EXPECT_TRUE(pool.acquire(waiter(1)));
  EXPECT_TRUE(pool.acquire(waiter(2)));
  EXPECT_EQ(pool.in_use(), 2);
  EXPECT_EQ(pool.waiting(), 0u);
}

TEST(ConnectionPoolTest, QueuesWhenExhausted) {
  ConnectionPool pool(1);
  EXPECT_TRUE(pool.acquire(waiter(1)));
  EXPECT_FALSE(pool.acquire(waiter(2)));
  EXPECT_EQ(pool.in_use(), 1);
  EXPECT_EQ(pool.waiting(), 1u);
  EXPECT_EQ(pool.total_waits(), 1u);
}

TEST(ConnectionPoolTest, ReleaseHandsToOldestWaiter) {
  ConnectionPool pool(1);
  EXPECT_TRUE(pool.acquire(waiter(0)));
  EXPECT_FALSE(pool.acquire(waiter(1)));
  EXPECT_FALSE(pool.acquire(waiter(2)));
  // FIFO, and each waiter comes back with the instant it began waiting.
  const auto first = pool.release();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->visit, 1u);
  EXPECT_EQ(first->since, TimePoint{1});
  const auto second = pool.release();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->visit, 2u);
  EXPECT_EQ(second->since, TimePoint{2});
  EXPECT_EQ(pool.in_use(), 1);
  EXPECT_FALSE(pool.release().has_value());
  EXPECT_EQ(pool.in_use(), 0);
}

TEST(ConnectionPoolTest, InUseNeverExceedsCapacity) {
  ConnectionPool pool(3);
  for (std::uint64_t i = 0; i < 10; ++i) pool.acquire(waiter(i));
  EXPECT_EQ(pool.in_use(), 3);
  EXPECT_EQ(pool.waiting(), 7u);
  for (int i = 0; i < 7; ++i) {
    EXPECT_TRUE(pool.release().has_value());
    EXPECT_LE(pool.in_use(), 3);
  }
}

TEST(ConnectionPoolTest, UnboundedNeverWaits) {
  ConnectionPool pool(-1);
  EXPECT_TRUE(pool.unbounded());
  int granted = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    if (pool.acquire(waiter(i))) ++granted;
  }
  EXPECT_EQ(granted, 1000);
  EXPECT_EQ(pool.waiting(), 0u);
  EXPECT_EQ(pool.total_waits(), 0u);
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(pool.release().has_value());
  EXPECT_EQ(pool.in_use(), 0);
}

TEST(ConnectionPoolTest, CountsAcquisitions) {
  ConnectionPool pool(1);
  pool.acquire(waiter(1));
  pool.acquire(waiter(2));
  pool.release();
  EXPECT_EQ(pool.total_acquisitions(), 2u);
}

TEST(ConnectionPoolTest, HandoffKeepsLedgerConsistent) {
  // A release that hands straight to a waiter must not inflate free count.
  ConnectionPool pool(1);
  EXPECT_TRUE(pool.acquire(waiter(1)));
  EXPECT_FALSE(pool.acquire(waiter(2)));
  EXPECT_TRUE(pool.release().has_value());  // hand-off
  EXPECT_EQ(pool.in_use(), 1);
  EXPECT_FALSE(pool.acquire(waiter(3)));  // still held by the waiter
  EXPECT_TRUE(pool.release().has_value());
  EXPECT_FALSE(pool.release().has_value());  // now actually free
  // Pool usable again:
  EXPECT_TRUE(pool.acquire(waiter(4)));
  EXPECT_EQ(pool.in_use(), 1);
}

TEST(ConnectionPoolTest, WaiterCanReacquireOnGrant) {
  // The holder of a handed-off connection may act on the grant at once, as
  // the application's sequential fan-out does: release it and acquire again
  // before anyone else touches the pool.
  ConnectionPool pool(1);
  EXPECT_TRUE(pool.acquire(waiter(1)));
  EXPECT_FALSE(pool.acquire(waiter(2)));
  const auto granted = pool.release();
  ASSERT_TRUE(granted.has_value());
  EXPECT_EQ(granted->visit, 2u);
  EXPECT_FALSE(pool.release().has_value());
  EXPECT_TRUE(pool.acquire(waiter(2)));
  EXPECT_EQ(pool.in_use(), 1);
  EXPECT_EQ(pool.waiting(), 0u);
  EXPECT_FALSE(pool.release().has_value());
  EXPECT_EQ(pool.in_use(), 0);
}

}  // namespace
}  // namespace sg
