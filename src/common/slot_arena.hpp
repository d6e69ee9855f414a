// Dense, generation-checked storage for short-lived per-request records.
//
// A SlotArena keeps its values in one vector and recycles freed slots
// through a free list, so a steady stream of insert/erase pairs allocates
// nothing once the arena has grown to its working size. Each slot carries a
// generation that erase() bumps. A Handle names a slot together with the
// generation it was issued under, with the EventId layout:
//
//   (generation << 32) | (slot + 1)        never 0
//
// so a handle whose value was erased, or whose slot now holds a newer
// value, fails its generation check and find() returns nullptr.
//
// insert() may grow the vector and move every value: never hold a T& or T*
// across a call that can insert into the same arena; re-find by handle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace sg {

template <class T>
class SlotArena {
 public:
  using Handle = std::uint64_t;

  /// Stores `value`; returns its handle (never 0).
  Handle insert(T value) {
    std::uint32_t slot;
    if (free_.empty()) {
      SG_ASSERT_MSG(slots_.size() < std::numeric_limits<std::uint32_t>::max(),
                    "slot arena exhausted");
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back(Slot{std::move(value), 0});
    } else {
      slot = free_.back();
      free_.pop_back();
      slots_[slot].value = std::move(value);
    }
    return (static_cast<Handle>(slots_[slot].generation) << 32) |
           (static_cast<Handle>(slot) + 1);
  }

  /// The live value `h` names, or nullptr when it was erased (or never
  /// issued).
  T* find(Handle h) {
    const auto slot_plus_one = static_cast<std::uint32_t>(h);
    if (slot_plus_one == 0 || slot_plus_one > slots_.size()) return nullptr;
    Slot& s = slots_[slot_plus_one - 1];
    // A freed slot's generation has moved past every handle it issued.
    if (s.generation != static_cast<std::uint32_t>(h >> 32)) return nullptr;
    return &s.value;
  }

  /// Like find(), for a handle the caller knows is live.
  T& at(Handle h) {
    T* v = find(h);
    SG_ASSERT_MSG(v != nullptr, "stale slot-arena handle");
    return *v;
  }

  /// Frees the slot of live handle `h`.
  void erase(Handle h) {
    T& v = at(h);
    // Drop resources now rather than when the slot is reused.
    if constexpr (!std::is_trivially_destructible_v<T>) v = T();
    const auto slot = static_cast<std::uint32_t>(h) - 1;
    ++slots_[slot].generation;
    free_.push_back(slot);
  }

  /// Moves the value of live handle `h` out and frees its slot.
  T take(Handle h) {
    T v = std::move(at(h));
    erase(h);
    return v;
  }

  /// Live values.
  std::size_t size() const { return slots_.size() - free_.size(); }

 private:
  struct Slot {
    T value;
    std::uint32_t generation;
  };

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
};

}  // namespace sg
