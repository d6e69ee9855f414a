// Connection pool for one RPC edge (paper §II-A, Fig. 5).
//
// With the fixed-size threadpool model, each upstream->downstream edge owns
// a pool of opened connections. A request must hold a connection for the
// full downstream round trip; when none is free, it waits in FIFO order.
// That wait is the *implicit queue* central to the paper: it is invisible to
// network-queue-based controllers (Caladan/Shenango) and is precisely the
// `timeWaitingForFreeConn` term that SurgeGuard's execMetric subtracts out.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>

#include "common/time.hpp"

namespace sg {

class ConnectionPool {
 public:
  /// A request waiting for a connection: the visit that asked and the
  /// instant it asked. The pool belongs to one edge, so the child is implied.
  struct Waiter {
    std::uint64_t visit = 0;
    TimePoint since;
  };

  /// capacity < 0 means unbounded (connection-per-request model).
  explicit ConnectionPool(int capacity) : capacity_(capacity) {}

  bool unbounded() const { return capacity_ < 0; }

  /// Connections currently held.
  int in_use() const { return in_use_; }

  /// Requests waiting for a connection (the implicit queue's length).
  std::size_t waiting() const { return waiters_.size(); }

  /// Grants `w` a free connection and returns true, or queues it (FIFO) and
  /// returns false.
  bool acquire(Waiter w);

  /// Returns a connection. When a request is waiting, the connection passes
  /// straight to the oldest one, which is returned: it now holds it.
  std::optional<Waiter> release();

  /// Lifetime counters.
  std::uint64_t total_acquisitions() const { return total_acquisitions_; }
  std::uint64_t total_waits() const { return total_waits_; }

 private:
  int capacity_;
  int in_use_ = 0;
  std::deque<Waiter> waiters_;
  std::uint64_t total_acquisitions_ = 0;
  std::uint64_t total_waits_ = 0;
};

}  // namespace sg
