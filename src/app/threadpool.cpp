#include "app/threadpool.hpp"

#include "common/assert.hpp"

namespace sg {

bool ConnectionPool::acquire(Waiter w) {
  ++total_acquisitions_;
  if (unbounded() || in_use_ < capacity_) {
    ++in_use_;
    return true;
  }
  ++total_waits_;
  waiters_.push_back(w);
  return false;
}

std::optional<ConnectionPool::Waiter> ConnectionPool::release() {
  SG_ASSERT_MSG(in_use_ > 0, "release without a held connection");
  if (!waiters_.empty()) {
    // Hand-off: the connection never returns to the free pool.
    const Waiter next = waiters_.front();
    waiters_.pop_front();
    return next;
  }
  --in_use_;
  return std::nullopt;
}

}  // namespace sg
