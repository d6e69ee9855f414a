#include "sim/event_queue.hpp"

#include "common/assert.hpp"

namespace sg {

EventId EventQueue::push(TimePoint time, std::uint64_t rank, Callback cb) {
  const EventId id = next_id_++;
  heap_.push(Entry{time, rank, next_seq_++, id, std::move(cb)});
  pending_.insert(id);
  return id;
}

bool EventQueue::cancel(EventId id) {
  if (id == kInvalidEvent) return false;
  // Only genuinely pending events can be cancelled; fired or unknown ids are
  // a no-op so callers can hold handles without lifetime bookkeeping.
  if (pending_.erase(id) == 0) return false;
  cancelled_.insert(id);
  return true;
}

void EventQueue::drop_cancelled() const {
  while (!heap_.empty() && cancelled_.count(heap_.top().id)) {
    cancelled_.erase(heap_.top().id);
    heap_.pop();
  }
}

TimePoint EventQueue::next_time() const {
  drop_cancelled();
  return heap_.empty() ? TimePoint::infinity() : heap_.top().time;
}

EventQueue::Fired EventQueue::pop() {
  drop_cancelled();
  SG_ASSERT_MSG(!heap_.empty(), "pop() on empty EventQueue");
  const Entry& top = heap_.top();
  Fired fired{top.time, top.id, std::move(top.cb)};
  heap_.pop();
  pending_.erase(fired.id);
  return fired;
}

}  // namespace sg
