#include "app/threadpool.hpp"

#include "common/assert.hpp"

namespace sg {

void ConnectionPool::acquire(InlineCallback granted) {
  ++total_acquisitions_;
  if (unbounded() || free_ > 0) {
    if (!unbounded()) --free_;
    ++in_use_;
    granted();
    return;
  }
  ++total_waits_;
  waiters_.push_back(std::move(granted));
}

void ConnectionPool::release() {
  SG_ASSERT_MSG(in_use_ > 0, "release without a held connection");
  --in_use_;
  if (unbounded()) return;
  if (!waiters_.empty()) {
    InlineCallback granted = std::move(waiters_.front());
    waiters_.pop_front();
    ++in_use_;  // hand-off: the connection never returns to the free pool
    granted();
    return;
  }
  ++free_;
  SG_ASSERT(free_ <= capacity_);
}

}  // namespace sg
