// Move-only `void()` callable with inline storage: the event queue's
// callback type.
//
// Nearly every simulator event is a small lambda — `[this]`, `[this, key]`,
// or a network delivery carrying a whole RpcPacket by value — and
// std::function heap-allocates anything past two pointers. Every capture
// lives inside the object, so scheduling allocates nothing; a callable
// larger than kInlineBytes, over-aligned or not nothrow-movable does not
// compile (box it yourself if it must be scheduled). Trivially copyable
// captures (all of the hot ones) move by byte copy and need no destructor
// call.
//
// This header is the one place event code constructs objects in raw
// storage; it lives in src/common/ because placement new is confined there
// (sg-lint D4).
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "common/assert.hpp"

namespace sg {

class InlineCallback {
 public:
  /// Capture bytes stored in place (at pointer alignment).
  static constexpr std::size_t kInlineBytes = 96;

  /// Whether a callable of type F fits: only such callables are accepted.
  template <class F>
  static constexpr bool stores_inline =
      sizeof(F) <= kInlineBytes && alignof(F) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<F>;

  InlineCallback() = default;

  /// Implicit, like std::function, so lambdas convert at call sites.
  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, InlineCallback> &&
             std::is_invocable_v<std::decay_t<F>&>)
  InlineCallback(F&& f) {
    emplace(std::forward<F>(f));
  }

  InlineCallback(InlineCallback&& other) noexcept { take(other); }

  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }

  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;

  ~InlineCallback() { reset(); }

  /// Constructs `f` directly in this empty callback's storage, with no
  /// temporary to relocate. Precondition: empty.
  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, InlineCallback> &&
             std::is_invocable_v<std::decay_t<F>&>)
  void emplace(F&& f) {
    using D = std::decay_t<F>;
    static_assert(stores_inline<D>,
                  "InlineCallback takes only a callable of at most "
                  "kInlineBytes (96) bytes, at most pointer alignment, and "
                  "nothrow-movable");
    ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
    ops_ = &kOps<D>;
  }

  /// Precondition: non-empty.
  void operator()() {
    SG_ASSERT_MSG(ops_ != nullptr, "call of an empty InlineCallback");
    ops_->invoke(buf_);
  }

  /// Destroys the stored callable, leaving this empty.
  void reset() {
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(buf_);
    ops_ = nullptr;
  }

 private:
  // Per-type operations. relocate move-constructs into `to` and ends the
  // object at `from`; a null destroy means the destructor is a no-op.
  struct Ops {
    void (*invoke)(void* self);
    void (*relocate)(void* from, void* to);
    void (*destroy)(void* self);
  };

  template <class D>
  static D* as(void* p) {
    return std::launder(static_cast<D*>(p));
  }

  template <class D>
  static void relocate(void* from, void* to) {
    if constexpr (std::is_trivially_copyable_v<D>) {
      std::memcpy(to, from, sizeof(D));
    } else {
      ::new (to) D(std::move(*as<D>(from)));
      as<D>(from)->~D();
    }
  }

  template <class D>
  static constexpr Ops kOps = {
      [](void* self) { (*as<D>(self))(); },
      &relocate<D>,
      std::is_trivially_destructible_v<D>
          ? nullptr
          : +[](void* self) { as<D>(self)->~D(); },
  };

  // Moves other's callable into this (empty) object, leaving other empty.
  void take(InlineCallback& other) {
    ops_ = other.ops_;
    if (ops_ == nullptr) return;
    ops_->relocate(other.buf_, buf_);
    other.ops_ = nullptr;
  }

  const Ops* ops_ = nullptr;
  alignas(void*) unsigned char buf_[kInlineBytes];
};

}  // namespace sg
