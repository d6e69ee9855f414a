#include "sim/event_queue.hpp"

#include <algorithm>
#include <memory>

#include "common/assert.hpp"

namespace sg {

namespace {

constexpr std::size_t kArity = 4;

std::size_t parent_of(std::size_t pos) { return (pos - 1) / kArity; }
std::size_t first_child_of(std::size_t pos) { return pos * kArity + 1; }

}  // namespace

std::uint32_t EventQueue::new_slot() {
  SG_ASSERT_MSG(slots_.size() < kBehindHead, "event slot space exhausted");
  const auto slot = static_cast<std::uint32_t>(slots_.size());
  if ((slot & kChunkMask) == 0) {
    chunks_.push_back(
        std::make_unique_for_overwrite<Callback[]>(kChunkMask + 1));
  }
  slots_.emplace_back();
  return slot;
}

EventId EventQueue::key_in_heap(TimePoint time, std::uint64_t rank,
                                std::uint32_t slot) {
  heap_.emplace_back();
  sift_up(heap_.size() - 1, Key{time, rank, next_seq_++, slot, kNoLane});
  return id_of(slot);
}

EventId EventQueue::append_to_lane(std::uint32_t lane_id, TimePoint time,
                                   std::uint32_t slot) {
  SG_ASSERT_MSG(lane_id < kBehindHead, "timer lane index out of range");
  if (lane_id >= lanes_.size()) lanes_.resize(lane_id + 1);
  Lane& lane = lanes_[lane_id];
  SG_ASSERT_MSG(time >= lane.last_time,
                "timer lane pushed out of order (earlier than its last push)");
  lane.last_time = time;
  const std::uint64_t seq = next_seq_++;
  const bool becomes_head = lane.count == 0;
  lane.push_back(LaneEntry{time, seq, slot, slots_[slot].generation});
  if (becomes_head) {
    heap_.emplace_back();
    sift_up(heap_.size() - 1, Key{time, kDefaultRank, seq, slot, lane_id});
  } else {
    slots_[slot].heap_pos = kBehindHead | lane_id;
    ++behind_heads_;
  }
  return id_of(slot);
}

std::uint32_t EventQueue::live_slot(EventId id) const {
  const auto slot_plus_one = static_cast<std::uint32_t>(id);
  if (slot_plus_one == 0 || slot_plus_one > slots_.size()) return kNoSlot;
  const std::uint32_t slot = slot_plus_one - 1;
  // A freed slot's generation has moved past every id it issued.
  if (slots_[slot].generation != static_cast<std::uint32_t>(id >> 32)) {
    return kNoSlot;
  }
  return slot;
}

bool EventQueue::cancel(EventId id) {
  const std::uint32_t slot = live_slot(id);
  if (slot == kNoSlot) return false;
  const std::uint32_t pos = slots_[slot].heap_pos;
  ++slots_[slot].generation;
  release_slot(slot);
  if ((pos & kBehindHead) != 0) {
    --behind_heads_;
    // The stale entry is skipped when it reaches the front, unless it (and
    // stale entries before it) can leave from the back now; trimming keeps
    // a lane whose latest timers are cancelled from growing.
    Lane& lane = lanes_[pos & ~kBehindHead];
    while (!is_live(lane.back())) lane.pop_back();
  } else {
    remove_key(pos);
  }
  return true;
}

bool EventQueue::reschedule(EventId id, TimePoint time) {
  const std::uint32_t slot = live_slot(id);
  if (slot == kNoSlot) return false;
  const std::uint32_t pos = slots_[slot].heap_pos;
  SG_ASSERT_MSG((pos & kBehindHead) == 0 && heap_[pos].lane == kNoLane,
                "reschedule() of a timer-lane event");
  Key key = heap_[pos];
  key.time = time;
  key.seq = next_seq_++;
  resift(pos, key);
  return true;
}

EventQueue::Fired EventQueue::pop() {
  SG_ASSERT_MSG(!heap_.empty(), "pop() on empty EventQueue");
  const Key top = heap_.front();
  const EventId id = id_of(top.slot);
  // The id dies now, so the callback cannot cancel or move itself; the slot
  // leaves the free list only when the Fired releases it.
  ++slots_[top.slot].generation;
  remove_key(0);
  return Fired(*this, top.time, id, top.slot);
}

void EventQueue::remove_key(std::size_t pos) {
  const std::uint32_t lane = heap_[pos].lane;
  if (lane == kNoLane) {
    erase_at(pos);
  } else {
    advance_lane(lane, pos);
  }
}

void EventQueue::advance_lane(std::uint32_t lane_id, std::size_t pos) {
  Lane& lane = lanes_[lane_id];
  lane.pop_front();
  while (lane.count > 0 && !is_live(lane.front())) lane.pop_front();
  if (lane.count == 0) {
    erase_at(pos);
    return;
  }
  // The lane is sorted by (time, seq), so the new head's key is larger than
  // the old one's and can only move down.
  --behind_heads_;
  const LaneEntry& next = lane.front();
  sift_down(pos, Key{next.time, kDefaultRank, next.seq, next.slot, lane_id});
}

void EventQueue::Lane::grow() {
  std::vector<LaneEntry> grown(std::max<std::size_t>(16, 2 * ring.size()));
  for (std::size_t i = 0; i < count; ++i) {
    grown[i] = ring[(head + i) & (ring.size() - 1)];
  }
  ring.swap(grown);
  head = 0;
}

void EventQueue::erase_at(std::size_t pos) {
  const Key last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // the erased key was the last one
  resift(pos, last);
}

void EventQueue::resift(std::size_t pos, const Key& key) {
  if (pos > 0 && before(key, heap_[parent_of(pos)])) {
    sift_up(pos, key);
  } else {
    sift_down(pos, key);
  }
}

// Both sifts move a hole instead of swapping: each displaced key is written
// once, and `key` lands where the hole stops.
void EventQueue::sift_up(std::size_t pos, const Key& key) {
  while (pos > 0) {
    const std::size_t parent = parent_of(pos);
    if (!before(key, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, key);
}

void EventQueue::sift_down(std::size_t pos, const Key& key) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = first_child_of(pos);
    if (first >= n) break;
    const std::size_t last = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], key)) break;
    place(pos, heap_[best]);
    pos = best;
  }
  place(pos, key);
}

}  // namespace sg
