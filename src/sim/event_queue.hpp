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
// Layout: an indexed 4-ary min-heap of 32-byte keys. Callbacks live in
// slots the keys point into, so sifts move keys only; each slot records its
// heap position, so cancel() removes an event from the heap at once and
// reschedule() re-keys it where it stands. push() constructs a callback
// directly in its slot, and the fired event's callback runs there too
// (Fired::run). The slots are fixed-size chunks that never move, so a
// running callback may push (adding chunks) without its captures moving
// under it.
// An EventId names a slot and the slot's generation, which is bumped
// when the slot's event fires or is cancelled: a stale id (fired,
// cancelled, running, or from a previous occupant) no longer matches and is
// a no-op.
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
#include <memory>
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

  /// Adds an event; returns a handle usable with cancel(). The callable is
  /// constructed directly in the event's slot.
  template <class F>
  EventId push(TimePoint time, F&& f) {
    return push(time, kDefaultRank, std::forward<F>(f));
  }

  /// Adds an event with an explicit tie-break rank.
  template <class F>
  EventId push(TimePoint time, std::uint64_t rank, F&& f) {
    const std::uint32_t slot = acquire_slot();
    callback(slot).emplace(std::forward<F>(f));
    return key_in_heap(time, rank, slot);
  }

  /// Appends an unranked event to timer lane `lane` (lanes are small dense
  /// indices, created on first use) in O(1). `time` must not be earlier
  /// than the lane's previous push.
  template <class F>
  EventId push_lane(std::uint32_t lane, TimePoint time, F&& f) {
    const std::uint32_t slot = acquire_slot();
    callback(slot).emplace(std::forward<F>(f));
    return append_to_lane(lane, time, slot);
  }

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

  /// The earliest event, taken by pop(): its key has left the queue and
  /// its id is already stale, so cancel() and reschedule() of it return
  /// false, but its callback stays in its slot. run() invokes the callback
  /// there; the slot is freed (and the callback destroyed) when the Fired
  /// is, so a callback may push and cancel freely while it runs. Neither
  /// copyable nor movable: it lives where pop() returns it.
  class Fired {
   public:
    const TimePoint time;
    const EventId id;

    void run() { queue_.callback(slot_)(); }
    ~Fired() { queue_.release_slot(slot_); }

    Fired(const Fired&) = delete;
    Fired& operator=(const Fired&) = delete;

   private:
    friend class EventQueue;
    Fired(EventQueue& queue, TimePoint t, EventId event, std::uint32_t slot)
        : time(t), id(event), queue_(queue), slot_(slot) {}

    EventQueue& queue_;
    const std::uint32_t slot_;
  };

  /// Takes the earliest event. Precondition: !empty().
  Fired pop();

 private:
  static constexpr std::uint32_t kNoLane = UINT32_MAX;
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;
  /// Tags a slot's heap_pos as the lane index of an event waiting behind
  /// its lane's head. Slot counts (hence heap positions) and lane indices
  /// stay below it.
  static constexpr std::uint32_t kBehindHead = 1u << 31;
  /// Callbacks per chunk: 256 x 104 bytes, 26 KiB. A queue grows one chunk
  /// at a time and never shrinks.
  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkMask = (1u << kChunkShift) - 1;

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

  Callback& callback(std::uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & kChunkMask];
  }

  /// The slot of pending event `id`, or kNoSlot when `id` is stale.
  std::uint32_t live_slot(EventId id) const;
  /// Takes a free slot (or a new one); its callback is empty.
  std::uint32_t acquire_slot() {
    if (free_slots_.empty()) return new_slot();
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  std::uint32_t new_slot();
  /// Empties the slot of a fired or cancelled event (whose generation has
  /// moved on) and makes it reusable.
  void release_slot(std::uint32_t slot) {
    callback(slot).reset();
    free_slots_.push_back(slot);
  }
  /// Keys the event in `slot` into the heap; returns its id.
  EventId key_in_heap(TimePoint time, std::uint64_t rank, std::uint32_t slot);
  /// Appends the event in `slot` to timer lane `lane`; returns its id.
  EventId append_to_lane(std::uint32_t lane, TimePoint time,
                         std::uint32_t slot);
  /// Removes the key at heap_[pos], whose event has fired or been
  /// cancelled: a heap event's key leaves the heap, a lane head's gives way
  /// to its lane's next.
  void remove_key(std::size_t pos);
  /// Replaces `lane`'s head, whose key sits at heap_[pos] and whose event
  /// has fired or been cancelled, by the next live entry (or drops the key
  /// if none is left).
  void advance_lane(std::uint32_t lane, std::size_t pos);

  void sift_up(std::size_t pos, const Key& key);
  void sift_down(std::size_t pos, const Key& key);
  /// Places `key` at heap_[pos] (whose old key it replaces), sifting it up
  /// or down as its order demands.
  void resift(std::size_t pos, const Key& key);
  /// Drops heap_[pos] and restores the heap order.
  void erase_at(std::size_t pos);

  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  /// Callback of slot s at chunks_[s >> kChunkShift][s & kChunkMask]; empty
  /// for free slots. Chunks never move, unlike a growing vector's elements.
  std::vector<std::unique_ptr<Callback[]>> chunks_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<Lane> lanes_;
  /// Live lane entries that are not their lane's head (and have no key).
  std::size_t behind_heads_ = 0;
  std::uint64_t next_seq_ = 1;
};

}  // namespace sg
