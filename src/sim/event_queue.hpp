// Pending-event set for the discrete-event simulator.
//
// A binary heap ordered by (time, rank, sequence) gives deterministic
// tie-breaking for simultaneous events — essential for reproducible
// experiments. The rank is a caller-supplied canonical key: events pushed
// without one (kDefaultRank) fall back to FIFO order among themselves, while
// ranked events (network deliveries, which carry a per-source-node sequence)
// order by rank *regardless of insertion order*, so same-nanosecond
// delivery order is a function of packet identity. That order is part of the
// pinned simulated output (simbench fingerprints, serial goldens).
// Cancellation is lazy (tombstones), which keeps schedule and pop at
// O(log n) without a handle-indexed heap.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "common/time.hpp"

namespace sg {

using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

/// Rank of events that do not carry a canonical tie-break key. Ranked events
/// always use a non-zero rank, so at equal timestamps unranked events (ticks,
/// timers) run before deliveries.
inline constexpr std::uint64_t kDefaultRank = 0;

class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Adds an event; returns a handle usable with cancel().
  EventId push(TimePoint time, Callback cb) {
    return push(time, kDefaultRank, std::move(cb));
  }

  /// Adds an event with an explicit tie-break rank.
  EventId push(TimePoint time, std::uint64_t rank, Callback cb);

  /// Cancels a pending event. Safe to call on already-fired or invalid
  /// handles (no-op). Returns true when the event was actually pending.
  bool cancel(EventId id);

  bool empty() const { return pending_.empty(); }
  std::size_t size() const { return pending_.size(); }

  /// Time of the earliest live event (TimePoint::infinity() when empty).
  TimePoint next_time() const;

  /// Removes and returns the earliest live event.
  /// Precondition: !empty().
  struct Fired {
    TimePoint time;
    EventId id;
    Callback cb;
  };
  Fired pop();

 private:
  struct Entry {
    TimePoint time;
    std::uint64_t rank;
    std::uint64_t seq;
    EventId id;
    // mutable so pop() can move the callback out of the priority_queue's
    // const top() reference; the comparator never inspects cb.
    mutable Callback cb;
    bool operator>(const Entry& other) const {
      if (time != other.time) return time > other.time;
      if (rank != other.rank) return rank > other.rank;
      return seq > other.seq;
    }
  };

  void drop_cancelled() const;

  mutable std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  mutable std::unordered_set<EventId> cancelled_;
  std::unordered_set<EventId> pending_;
  std::uint64_t next_seq_ = 1;
  EventId next_id_ = 1;
};

}  // namespace sg
