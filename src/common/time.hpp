// Simulated-time quantities shared by every SurgeGuard module.
//
// All simulation timestamps and durations are signed 64-bit nanosecond
// counts. A signed representation lets slack computations (expected minus
// observed progress, paper eq. 4) go negative without tripping wraparound.
//
// The paper's slack math is signed mixed-unit arithmetic — exactly the kind
// that breeds silent ns-vs-ms and timestamp-vs-duration bugs when everything
// is a bare int64_t. Two strong types carry the dimension instead
// (DESIGN.md §8):
//
//   sg::Duration   — a span of simulated time (ns resolution)
//   sg::TimePoint  — an instant, measured from simulation start
//
// Frequency is integer MHz (`FreqMhz`, cluster/cpu.hpp) so that DVFS levels
// compare exactly; energy is `double` joules.
//
// Both types are zero-overhead wrappers: a single int64 member, every operation
// constexpr and inline, no virtuals, trivially copyable. The allowed-ops
// table is:
//
//   Duration  ± Duration  → Duration      TimePoint − TimePoint → Duration
//   TimePoint ± Duration  → TimePoint     Duration + TimePoint  → TimePoint
//   Duration  × scalar    → Duration      Duration / Duration   → double
//   Duration  % Duration  → Duration
//
// Everything else (TimePoint + TimePoint, scaling a TimePoint, comparing a
// point with a duration, a bare integer where a quantity is expected, a
// quantity where a number is expected, ...) does not compile; the
// `time_negative_compile` test pins each rejection. The only way in from a
// raw nanosecond count is the explicit constructor (or a unit factory such
// as Duration::ms), and the only way out is .ns().
#pragma once

#include <concepts>
#include <cstdint>
#include <string>

namespace sg {

// ---------------------------------------------------------------------------
// Duration: a span of simulated time.
// ---------------------------------------------------------------------------

class Duration {
 public:
  constexpr Duration() = default;
  /// Explicit entry from a raw nanosecond count.
  explicit constexpr Duration(std::int64_t ns) : ns_(ns) {}

  static constexpr Duration zero() { return Duration{0}; }
  /// Largest representable span; the "never" sentinel.
  static constexpr Duration infinity() { return Duration{INT64_MAX}; }
  static constexpr Duration ns(std::int64_t v) { return Duration{v}; }
  static constexpr Duration us(std::int64_t v) { return Duration{v * 1'000}; }
  static constexpr Duration ms(std::int64_t v) {
    return Duration{v * 1'000'000};
  }
  static constexpr Duration sec(std::int64_t v) {
    return Duration{v * 1'000'000'000};
  }
  /// Fractional seconds, rounded half away from zero (symmetric for negative
  /// slacks; plain `+ 0.5` truncation would round -1.5 ns to -1 ns but
  /// 1.5 ns to 2 ns).
  static constexpr Duration seconds(double s) {
    const double ns = s * 1e9;
    return Duration{static_cast<std::int64_t>(ns >= 0.0 ? ns + 0.5 : ns - 0.5)};
  }

  /// Whether a nanosecond count converts to a Duration: finite and inside
  /// int64_t's range (NaN fails both comparisons). Parsers check a value
  /// with this before the cast, which is undefined behaviour otherwise.
  static constexpr bool fits(double ns) { return ns > -0x1p63 && ns < 0x1p63; }

  /// Raw nanosecond count — the only way out of the type.
  constexpr std::int64_t ns() const { return ns_; }
  constexpr double seconds() const { return static_cast<double>(ns_) / 1e9; }
  constexpr double millis() const { return static_cast<double>(ns_) / 1e6; }
  constexpr double micros() const { return static_cast<double>(ns_) / 1e3; }

  constexpr Duration operator-() const { return Duration{-ns_}; }
  constexpr Duration& operator+=(Duration d) {
    ns_ += d.ns_;
    return *this;
  }
  constexpr Duration& operator-=(Duration d) {
    ns_ -= d.ns_;
    return *this;
  }

  friend constexpr Duration operator+(Duration a, Duration b) {
    return Duration{a.ns_ + b.ns_};
  }
  friend constexpr Duration operator-(Duration a, Duration b) {
    return Duration{a.ns_ - b.ns_};
  }
  /// Scaling keeps the dimension; the scalar side is dimensionless. A
  /// floating scalar truncates toward zero, like the int64 cast it replaces.
  friend constexpr Duration operator*(Duration d, double k) {
    return Duration{static_cast<std::int64_t>(static_cast<double>(d.ns_) * k)};
  }
  friend constexpr Duration operator*(double k, Duration d) { return d * k; }
  friend constexpr Duration operator/(Duration d, double k) {
    return Duration{static_cast<std::int64_t>(static_cast<double>(d.ns_) / k)};
  }
  // Integer scalars stay exact integer arithmetic. Templates so that a plain
  // `int` binds here exactly instead of tying between int64_t and double.
  template <std::integral I>
  friend constexpr Duration operator*(Duration d, I k) {
    return Duration{d.ns_ * static_cast<std::int64_t>(k)};
  }
  template <std::integral I>
  friend constexpr Duration operator*(I k, Duration d) {
    return d * k;
  }
  template <std::integral I>
  friend constexpr Duration operator/(Duration d, I k) {
    return Duration{d.ns_ / static_cast<std::int64_t>(k)};
  }
  /// Ratio of two durations is dimensionless.
  friend constexpr double operator/(Duration a, Duration b) {
    return static_cast<double>(a.ns_) / static_cast<double>(b.ns_);
  }
  /// Remainder of a span modulo a period (phase within a cycle).
  friend constexpr Duration operator%(Duration a, Duration b) {
    return Duration{a.ns_ % b.ns_};
  }

  friend constexpr bool operator==(Duration a, Duration b) = default;
  friend constexpr auto operator<=>(Duration a, Duration b) = default;

 private:
  std::int64_t ns_ = 0;
};

inline constexpr Duration kNanosecond = Duration::ns(1);
inline constexpr Duration kMicrosecond = Duration::us(1);
inline constexpr Duration kMillisecond = Duration::ms(1);
inline constexpr Duration kSecond = Duration::sec(1);

namespace literals {

constexpr Duration operator""_ns(unsigned long long v) {
  return Duration::ns(static_cast<std::int64_t>(v));
}
constexpr Duration operator""_us(unsigned long long v) {
  return Duration::us(static_cast<std::int64_t>(v));
}
constexpr Duration operator""_ms(unsigned long long v) {
  return Duration::ms(static_cast<std::int64_t>(v));
}
constexpr Duration operator""_s(unsigned long long v) {
  return Duration::sec(static_cast<std::int64_t>(v));
}

}  // namespace literals

/// Human-readable rendering with an auto-selected unit ("1.25ms", "3.2s").
std::string format_time(Duration d);

// ---------------------------------------------------------------------------
// TimePoint: an instant, measured from simulation start.
// ---------------------------------------------------------------------------

class TimePoint {
 public:
  constexpr TimePoint() = default;
  /// Explicit entry from a raw nanoseconds-since-start count.
  explicit constexpr TimePoint(std::int64_t ns_since_start)
      : ns_(ns_since_start) {}

  static constexpr TimePoint origin() { return TimePoint{0}; }
  /// Latest representable instant; the "never" sentinel.
  static constexpr TimePoint infinity() { return TimePoint{INT64_MAX}; }
  /// The instant `since_origin` after simulation start.
  static constexpr TimePoint at(Duration since_origin) {
    return TimePoint{since_origin.ns()};
  }

  /// Raw nanoseconds since simulation start — the only way out.
  constexpr std::int64_t ns() const { return ns_; }
  /// Elapsed simulated time since the origin, as a duration.
  constexpr Duration since_origin() const { return Duration{ns_}; }

  constexpr TimePoint& operator+=(Duration d) {
    ns_ += d.ns();
    return *this;
  }
  constexpr TimePoint& operator-=(Duration d) {
    ns_ -= d.ns();
    return *this;
  }

  friend constexpr TimePoint operator+(TimePoint p, Duration d) {
    return TimePoint{p.ns_ + d.ns()};
  }
  friend constexpr TimePoint operator+(Duration d, TimePoint p) {
    return p + d;
  }
  friend constexpr TimePoint operator-(TimePoint p, Duration d) {
    return TimePoint{p.ns_ - d.ns()};
  }
  /// point − point → duration: the paper's slack math (eq. 4).
  friend constexpr Duration operator-(TimePoint a, TimePoint b) {
    return Duration{a.ns_ - b.ns_};
  }

  // Dimensionally meaningless combinations are compile errors, not silent
  // int64 arithmetic.
  friend constexpr TimePoint operator+(TimePoint, TimePoint) = delete;
  friend constexpr TimePoint operator*(TimePoint, double) = delete;
  friend constexpr TimePoint operator*(double, TimePoint) = delete;
  friend constexpr TimePoint operator/(TimePoint, double) = delete;

  friend constexpr bool operator==(TimePoint a, TimePoint b) = default;
  friend constexpr auto operator<=>(TimePoint a, TimePoint b) = default;

 private:
  std::int64_t ns_ = 0;
};

}  // namespace sg
