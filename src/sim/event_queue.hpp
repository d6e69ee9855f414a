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
// an event occupies, not on when a cancelled event leaves the set, and not
// on whether an event waits in the heap or in a timer lane. reschedule()
// moves a heap event in place under a fresh sequence number, the key that
// cancelling it and pushing it anew would give, so it keeps this order too.
//
// Layout: an indexed 4-ary min-heap of 32-byte keys. Callbacks live in a
// slot array the keys point into, so sifts move keys only; each slot records
// its heap position, so cancel() removes an event from the heap at once
// and reschedule() re-keys it where it stands.
// An EventId names a slot and the slot's generation, which is bumped
// whenever the slot is freed: a stale id (fired, cancelled, or from a
// previous occupant) no longer matches and is a no-op.
//
// Timer lanes keep timeouts out of the heap. A lane is a FIFO of unranked
// events whose times never decrease in push order (the caller arms every
// timer of one lane with the same fixed delay, and the clock never runs
// backwards), so push order is already (time, seq) order and only the lane's
// head needs a heap key. Popping or cancelling a head re-keys its heap entry
// in place with the next live entry; cancelling an entry behind the head
// frees its slot at once and leaves a stale lane entry that the generation
// check skips when it reaches the front. Lane heads carry ordinary
// (time, kDefaultRank, seq) keys, so the total pop order is exactly the one
// the same pushes would give in the heap.
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

  /// Appends an unranked event to timer lane `lane` (lanes are small dense
  /// indices, created on first use) in O(1). `time` must not be earlier
  /// than the lane's previous push.
  EventId push_lane(std::uint32_t lane, TimePoint time, Callback&& cb);

  /// Cancels a pending event, destroying its callback. Safe to call on
  /// already-fired, cancelled or never-issued handles (no-op). Returns true
  /// when the event was actually pending.
  bool cancel(EventId id);

  /// Moves a pending heap event to `time` in place: it keeps its id, slot,
  /// rank and callback and takes a fresh sequence number, so its key is
  /// exactly the one cancel() followed by push() with the same rank would
  /// give, and the pop order is the same. Returns false (and changes
  /// nothing) for a fired, cancelled or never-issued id. A timer-lane event
  /// cannot be moved (its lane's FIFO order would break): an assertion
  /// failure.
  bool reschedule(EventId id, TimePoint time);

  // A lane with pending events keeps its head in the heap, so the heap is
  // empty only when no event is pending.
  bool empty() const { return heap_.empty(); }
  /// Pending events, in the heap and behind lane heads.
  std::size_t size() const { return heap_.size() + behind_heads_; }

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
  static constexpr std::uint32_t kNoLane = UINT32_MAX;
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;
  /// Tags a slot's heap_pos as the lane index of an event waiting behind
  /// its lane's head. Slot counts (hence heap positions) and lane indices
  /// stay below it.
  static constexpr std::uint32_t kBehindHead = 1u << 31;

  struct Key {
    TimePoint time;
    std::uint64_t rank;
    std::uint64_t seq;
    std::uint32_t slot;
    /// Timer lane whose head this is; kNoLane for an event of the heap.
    std::uint32_t lane;
  };
  // A node's four children span two cache lines.
  static_assert(sizeof(Key) == 32);

  struct Slot {
    std::uint32_t generation = 0;
    /// Position of the slot's key in the heap, or kBehindHead | lane.
    std::uint32_t heap_pos = 0;
  };

  struct LaneEntry {
    TimePoint time;
    std::uint64_t seq;
    std::uint32_t slot;
    /// The slot's generation at push; a mismatch marks a cancelled entry.
    std::uint32_t generation;
  };

  /// FIFO ring of one lane's entries. The front entry is always live and
  /// keyed in the heap; cancelled entries behind it wait to be skipped.
  struct Lane {
    std::vector<LaneEntry> ring;  // capacity is zero or a power of two
    std::size_t head = 0;
    std::size_t count = 0;
    TimePoint last_time;  // of the latest push, for the FIFO assertion

    const LaneEntry& front() const { return ring[head]; }
    const LaneEntry& back() const {
      return ring[(head + count - 1) & (ring.size() - 1)];
    }
    void pop_front() {
      head = (head + 1) & (ring.size() - 1);
      --count;
    }
    void pop_back() { --count; }
    void push_back(const LaneEntry& entry) {
      if (count == ring.size()) grow();
      ring[(head + count) & (ring.size() - 1)] = entry;
      ++count;
    }
    /// Doubles the ring, unrolling it to start at index 0.
    void grow();
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

  bool is_live(const LaneEntry& e) const {
    return slots_[e.slot].generation == e.generation;
  }

  /// The slot of pending event `id`, or kNoSlot when `id` is stale.
  std::uint32_t live_slot(EventId id) const;
  /// Takes a free slot (or a new one) for `cb`.
  std::uint32_t acquire_slot(Callback&& cb);
  /// Removes the key at heap_[pos], whose slot has been freed: a heap
  /// event's key leaves the heap, a lane head's gives way to its lane's next.
  void remove_key(std::size_t pos);
  /// Replaces `lane`'s head, whose key sits at heap_[pos] and whose slot has
  /// been freed, by the next live entry (or drops the key if none is left).
  void advance_lane(std::uint32_t lane, std::size_t pos);

  void sift_up(std::size_t pos, const Key& key);
  void sift_down(std::size_t pos, const Key& key);
  /// Places `key` at heap_[pos] (whose old key it replaces), sifting it up
  /// or down as its order demands.
  void resift(std::size_t pos, const Key& key);
  /// Drops heap_[pos] and restores the heap order.
  void erase_at(std::size_t pos);
  void free_slot(std::uint32_t slot);

  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  /// Parallel to slots_; empty for free slots.
  std::vector<Callback> callbacks_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<Lane> lanes_;
  /// Live lane entries that are not their lane's head (and have no key).
  std::size_t behind_heads_ = 0;
  std::uint64_t next_seq_ = 1;
};

}  // namespace sg
