#include "common/slot_arena.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/inline_callback.hpp"

namespace sg {
namespace {

TEST(SlotArenaTest, InsertFindErase) {
  SlotArena<int> arena;
  EXPECT_EQ(arena.size(), 0u);
  const auto a = arena.insert(10);
  const auto b = arena.insert(20);
  EXPECT_NE(a, b);
  EXPECT_EQ(arena.size(), 2u);
  ASSERT_NE(arena.find(a), nullptr);
  EXPECT_EQ(*arena.find(a), 10);
  EXPECT_EQ(arena.at(b), 20);

  arena.at(a) = 11;
  EXPECT_EQ(*arena.find(a), 11);

  arena.erase(a);
  EXPECT_EQ(arena.size(), 1u);
  EXPECT_EQ(arena.find(a), nullptr);
  EXPECT_EQ(arena.at(b), 20);
  EXPECT_EQ(arena.take(b), 20);
  EXPECT_EQ(arena.size(), 0u);
  EXPECT_EQ(arena.find(b), nullptr);
}

TEST(SlotArenaTest, ReusedSlotRejectsTheOldHandle) {
  SlotArena<int> arena;
  const auto old_handle = arena.insert(1);
  arena.erase(old_handle);
  const auto new_handle = arena.insert(2);
  // Same slot (the free list hands it straight back), newer generation.
  EXPECT_EQ(static_cast<std::uint32_t>(new_handle),
            static_cast<std::uint32_t>(old_handle));
  EXPECT_NE(new_handle, old_handle);
  EXPECT_EQ(arena.find(old_handle), nullptr);
  ASSERT_NE(arena.find(new_handle), nullptr);
  EXPECT_EQ(*arena.find(new_handle), 2);
  EXPECT_EQ(arena.size(), 1u);
}

TEST(SlotArenaTest, HandlesAreNeverZero) {
  SlotArena<int> arena;
  std::vector<SlotArena<int>::Handle> live;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 8; ++i) {
      const auto h = arena.insert(i);
      EXPECT_NE(h, 0u);
      live.push_back(h);
    }
    // Free every other handle so later rounds reuse slots.
    for (std::size_t i = 0; i < live.size(); i += 2) arena.erase(live[i]);
    std::vector<SlotArena<int>::Handle> kept;
    for (std::size_t i = 1; i < live.size(); i += 2) kept.push_back(live[i]);
    live = kept;
  }
  EXPECT_EQ(arena.size(), live.size());
  EXPECT_EQ(arena.find(0), nullptr);
}

TEST(SlotArenaTest, NeverIssuedHandlesAreNotFound) {
  SlotArena<int> arena;
  const auto h = arena.insert(5);
  EXPECT_EQ(arena.find(h + 1), nullptr);                 // slot out of range
  EXPECT_EQ(arena.find(h + (SlotArena<int>::Handle{1} << 32)), nullptr);
}

TEST(SlotArenaTest, ValuesSurviveGrowth) {
  SlotArena<std::unique_ptr<int>> arena;
  std::vector<SlotArena<std::unique_ptr<int>>::Handle> handles;
  for (int i = 0; i < 1000; ++i) {
    handles.push_back(arena.insert(std::make_unique<int>(i)));
  }
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(*arena.at(handles[static_cast<std::size_t>(i)]), i);
  }
}

TEST(SlotArenaTest, TakeMovesACallbackOut) {
  SlotArena<InlineCallback> arena;
  int calls = 0;
  const auto h = arena.insert([&calls]() { ++calls; });
  InlineCallback cb = arena.take(h);
  EXPECT_EQ(arena.size(), 0u);
  cb();
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace sg
