// Pending-event set for the discrete-event simulator.
//
// Events pop in (time, rank, sequence) order, which gives deterministic
// tie-breaking for simultaneous events — essential for reproducible
// experiments. The rank is a caller-supplied canonical key: events pushed
// without one (kDefaultRank) fall back to FIFO order among themselves, while
// ranked events (network deliveries, which carry a per-source-node sequence)
// order by rank *regardless of insertion order*, so same-nanosecond
// delivery order is a function of packet identity. That order is part of the
// pinned simulated output (simbench fingerprints, serial goldens).
//
// The sequence number is unique, so the key is a total order and the pop
// order depends on nothing else: not on the heap's shape, not on which slot
// an event occupies, and not on when a cancelled event leaves the set.
//
// Layout: an indexed 4-ary min-heap of 32-byte keys. Callbacks live in a
// slot array the keys point into, so sifts move keys only; each slot records
// its heap position, so cancel() removes an event from the heap at once.
// An EventId names a slot and the slot's generation, which is bumped
// whenever the slot is freed: a stale id (fired, cancelled, or from a
// previous occupant) no longer matches and is a no-op.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/inline_callback.hpp"
#include "common/time.hpp"

namespace sg {

/// (generation << 32) | (slot + 1); never 0.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

/// Rank of events that do not carry a canonical tie-break key. Ranked events
/// always use a non-zero rank, so at equal timestamps unranked events (ticks,
/// timers) run before deliveries.
inline constexpr std::uint64_t kDefaultRank = 0;

class EventQueue {
 public:
  using Callback = InlineCallback;

  /// Adds an event; returns a handle usable with cancel(). Callbacks are
  /// taken by rvalue reference so each is relocated once, into its slot.
  EventId push(TimePoint time, Callback&& cb) {
    return push(time, kDefaultRank, std::move(cb));
  }

  /// Adds an event with an explicit tie-break rank.
  EventId push(TimePoint time, std::uint64_t rank, Callback&& cb);

  /// Cancels a pending event, destroying its callback. Safe to call on
  /// already-fired, cancelled or never-issued handles (no-op). Returns true
  /// when the event was actually pending.
  bool cancel(EventId id);

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Time of the earliest event (TimePoint::infinity() when empty).
  TimePoint next_time() const {
    return heap_.empty() ? TimePoint::infinity() : heap_.front().time;
  }

  /// Removes and returns the earliest event. The callback is moved out of
  /// its slot, and the slot freed, before the caller runs it, so a callback
  /// may push (growing the slot array) or cancel freely.
  /// Precondition: !empty().
  struct Fired {
    TimePoint time;
    EventId id;
    Callback cb;
  };
  Fired pop();

 private:
  struct Key {
    TimePoint time;
    std::uint64_t rank;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  // A node's four children span two cache lines.
  static_assert(sizeof(Key) == 32);

  struct Slot {
    std::uint32_t generation = 0;
    std::uint32_t heap_pos = 0;
  };

  static bool before(const Key& a, const Key& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.rank != b.rank) return a.rank < b.rank;
    return a.seq < b.seq;
  }

  EventId id_of(std::uint32_t slot) const {
    return (static_cast<EventId>(slots_[slot].generation) << 32) |
           (static_cast<EventId>(slot) + 1);
  }

  void place(std::size_t pos, const Key& key) {
    heap_[pos] = key;
    slots_[key.slot].heap_pos = static_cast<std::uint32_t>(pos);
  }

  void sift_up(std::size_t pos, const Key& key);
  void sift_down(std::size_t pos, const Key& key);
  /// Drops heap_[pos] and restores the heap order.
  void erase_at(std::size_t pos);
  void free_slot(std::uint32_t slot);

  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  /// Parallel to slots_; empty for free slots.
  std::vector<Callback> callbacks_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 1;
};

}  // namespace sg
