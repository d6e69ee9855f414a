// Per-request state found by request id, for ids issued densely.
//
// The load generator issues request ids 1, 2, 3, ... in order, so the
// requests in flight anywhere span a short range of ids. A RequestWindow
// keeps one optional entry per id in [base, base + n): find() is an index,
// erase() pops retired entries off the front, and insert() grows the
// window at the back, or at the front for an id below the base (a late
// retransmission); an insert into an empty window rebases it.
//
// Contract: ids must be dense. A live entry that never retires holds the
// window open, one entry per later id. Entries live in a std::deque, so a
// T* stays valid until its own id is erased.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <utility>

#include "common/assert.hpp"

namespace sg {

using RequestId = std::uint64_t;

template <class T>
class RequestWindow {
 public:
  /// The live entry of `id`, or nullptr.
  T* find(RequestId id) {
    if (id < base_ || id - base_ >= entries_.size()) return nullptr;
    std::optional<T>& e = entries_[id - base_];
    return e ? &*e : nullptr;
  }

  /// The entry of `id` and whether this call inserted it; a new entry is
  /// value-initialized, an existing one is left as it is.
  std::pair<T*, bool> insert(RequestId id) {
    if (entries_.empty()) base_ = id;
    // One entry at a time: the deque's range insert and resize, compiled
    // for each entry type, cost the simulator ~20 KB of code.
    for (; id < base_; --base_) entries_.emplace_front();
    while (id - base_ >= entries_.size()) entries_.emplace_back();
    std::optional<T>& e = entries_[id - base_];
    if (e) return {&*e, false};
    e.emplace();
    ++live_;
    return {&*e, true};
  }

  /// Retires the live entry of `id`, then pops retired entries off the
  /// front.
  void erase(RequestId id) {
    SG_ASSERT_MSG(find(id) != nullptr, "erase of an id not in the window");
    entries_[id - base_].reset();
    --live_;
    while (!entries_.empty() && !entries_.front()) {
      entries_.pop_front();
      ++base_;
    }
  }

  /// Live entries.
  std::size_t size() const { return live_; }

 private:
  std::deque<std::optional<T>> entries_;
  RequestId base_ = 0;
  std::size_t live_ = 0;
};

}  // namespace sg
