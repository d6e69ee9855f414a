// Simulated-time primitives and the strong-typed quantity layer shared by
// every SurgeGuard module.
//
// All simulation timestamps and durations are signed 64-bit nanosecond
// counts. A signed representation lets slack computations (expected minus
// observed progress, paper eq. 4) go negative without tripping wraparound.
//
// Quantity layer (DESIGN.md §8). The paper's slack math (eq. 4) is signed
// mixed-unit arithmetic — exactly the kind that breeds silent ns-vs-ms and
// timestamp-vs-duration bugs when everything is a bare int64_t. Four strong
// types carry the dimension in the type system:
//
//   sg::Duration   — a span of simulated time (ns resolution)
//   sg::TimePoint  — an instant, measured from simulation start
//   sg::Freq       — a CPU frequency (Hz resolution, stored as double)
//   sg::Energy     — an energy amount (joules, stored as double)
//
// All are zero-overhead wrappers: a single scalar member, every operation
// constexpr and inline, no virtuals, trivially copyable. The allowed-ops
// table (enforced both by deleted overloads here and by sg-lint rules
// U1–U4) is:
//
//   Duration  ± Duration  → Duration      TimePoint − TimePoint → Duration
//   TimePoint ± Duration  → TimePoint     Duration + TimePoint  → TimePoint
//   Duration  × scalar    → Duration      Duration / Duration   → double
//   Freq      × Duration  → double (cycles; commutes)
//   Energy    / Duration  → double (watts)
//   Energy    ± Energy    → Energy        Freq ± Freq           → Freq
//
// Everything else (TimePoint + TimePoint, scaling a TimePoint, adding a
// Duration to an Energy, ...) is dimensionally meaningless and does not
// compile / does not lint.
//
// Migration note: `SimTime` remains the raw int64 nanosecond alias while the
// tree migrates; APIs that predate the quantity layer still traffic in it.
// The `_ns/_us/_ms/_s` literals keep producing SimTime so existing call
// sites stay source-compatible; strong types are built via the explicit
// factories (Duration::ms(5), TimePoint::at(t)) and unwrapped via .ns().
// sg-lint treats SimTime as "time, point-or-duration unknown": it joins U2
// and U3 enforcement but is exempt from U1 until its uses are migrated.
#pragma once

#include <cstdint>
#include <string>

namespace sg {

/// Nanoseconds since simulation start (or a duration in nanoseconds).
/// Legacy alias retained during the quantity-layer migration.
using SimTime = std::int64_t;

inline constexpr SimTime kNanosecond = 1;
inline constexpr SimTime kMicrosecond = 1'000;
inline constexpr SimTime kMillisecond = 1'000'000;
inline constexpr SimTime kSecond = 1'000'000'000;

/// Largest representable time; used as the "never" sentinel for events.
inline constexpr SimTime kTimeInfinity = INT64_MAX;

namespace literals {

constexpr SimTime operator""_ns(unsigned long long v) {
  return static_cast<SimTime>(v);
}
constexpr SimTime operator""_us(unsigned long long v) {
  return static_cast<SimTime>(v) * kMicrosecond;
}
constexpr SimTime operator""_ms(unsigned long long v) {
  return static_cast<SimTime>(v) * kMillisecond;
}
constexpr SimTime operator""_s(unsigned long long v) {
  return static_cast<SimTime>(v) * kSecond;
}

}  // namespace literals

/// Converts a duration to fractional seconds (for reporting / math).
constexpr double to_seconds(SimTime t) {
  return static_cast<double>(t) / static_cast<double>(kSecond);
}

/// Converts a duration to fractional milliseconds.
constexpr double to_millis(SimTime t) {
  return static_cast<double>(t) / static_cast<double>(kMillisecond);
}

/// Converts a duration to fractional microseconds.
constexpr double to_micros(SimTime t) {
  return static_cast<double>(t) / static_cast<double>(kMicrosecond);
}

/// Converts fractional seconds to a SimTime, rounding half away from zero
/// (symmetric for negative slacks; plain `+ 0.5` truncation would round
/// -1.5 ns to -1 ns but 1.5 ns to 2 ns).
constexpr SimTime from_seconds(double s) {
  const double ns = s * static_cast<double>(kSecond);
  return static_cast<SimTime>(ns >= 0.0 ? ns + 0.5 : ns - 0.5);
}

/// Human-readable rendering with an auto-selected unit ("1.25ms", "3.2s").
std::string format_time(SimTime t);

// ---------------------------------------------------------------------------
// Duration: a span of simulated time.
// ---------------------------------------------------------------------------

class Duration {
 public:
  constexpr Duration() = default;
  /// Explicit escape hatch from raw nanoseconds (legacy-API boundaries).
  explicit constexpr Duration(SimTime ns) : ns_(ns) {}

  static constexpr Duration zero() { return Duration{0}; }
  static constexpr Duration infinity() { return Duration{kTimeInfinity}; }
  static constexpr Duration ns(SimTime v) { return Duration{v}; }
  static constexpr Duration us(SimTime v) { return Duration{v * kMicrosecond}; }
  static constexpr Duration ms(SimTime v) { return Duration{v * kMillisecond}; }
  static constexpr Duration sec(SimTime v) { return Duration{v * kSecond}; }
  /// Fractional seconds, rounded half away from zero (cf. from_seconds).
  static constexpr Duration seconds(double s) {
    return Duration{from_seconds(s)};
  }

  /// Raw nanosecond count — the only way out of the type.
  constexpr SimTime ns() const { return ns_; }
  constexpr double seconds() const { return to_seconds(ns_); }
  constexpr double millis() const { return to_millis(ns_); }
  constexpr double micros() const { return to_micros(ns_); }

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
  /// Scaling keeps the dimension; the scalar side is dimensionless.
  friend constexpr Duration operator*(Duration d, double k) {
    return Duration{static_cast<SimTime>(static_cast<double>(d.ns_) * k)};
  }
  friend constexpr Duration operator*(double k, Duration d) { return d * k; }
  friend constexpr Duration operator*(Duration d, SimTime k) {
    return Duration{d.ns_ * k};
  }
  friend constexpr Duration operator*(SimTime k, Duration d) { return d * k; }
  friend constexpr Duration operator/(Duration d, double k) {
    return Duration{static_cast<SimTime>(static_cast<double>(d.ns_) / k)};
  }
  friend constexpr Duration operator/(Duration d, SimTime k) {
    return Duration{d.ns_ / k};
  }
  /// Ratio of two durations is dimensionless.
  friend constexpr double operator/(Duration a, Duration b) {
    return static_cast<double>(a.ns_) / static_cast<double>(b.ns_);
  }

  friend constexpr bool operator==(Duration a, Duration b) = default;
  friend constexpr auto operator<=>(Duration a, Duration b) = default;

 private:
  SimTime ns_ = 0;
};

/// Symmetric rendering for durations.
inline std::string format_time(Duration d) { return format_time(d.ns()); }

constexpr double to_seconds(Duration d) { return d.seconds(); }
constexpr double to_millis(Duration d) { return d.millis(); }
constexpr double to_micros(Duration d) { return d.micros(); }

// ---------------------------------------------------------------------------
// TimePoint: an instant, measured from simulation start.
// ---------------------------------------------------------------------------

class TimePoint {
 public:
  constexpr TimePoint() = default;
  /// Explicit escape hatch from a raw ns-since-start (legacy-API boundary).
  explicit constexpr TimePoint(SimTime ns_since_start)
      : ns_(ns_since_start) {}

  static constexpr TimePoint origin() { return TimePoint{0}; }
  static constexpr TimePoint infinity() { return TimePoint{kTimeInfinity}; }
  static constexpr TimePoint at(SimTime ns_since_start) {
    return TimePoint{ns_since_start};
  }

  /// Raw nanoseconds since simulation start — the only way out.
  constexpr SimTime ns() const { return ns_; }
  /// Elapsed simulated time since the origin, as a strong duration.
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
  // int64 arithmetic (sg-lint rule U1 catches the same shapes pre-build).
  friend constexpr TimePoint operator+(TimePoint, TimePoint) = delete;
  friend constexpr TimePoint operator*(TimePoint, double) = delete;
  friend constexpr TimePoint operator*(double, TimePoint) = delete;
  friend constexpr TimePoint operator/(TimePoint, double) = delete;

  friend constexpr bool operator==(TimePoint a, TimePoint b) = default;
  friend constexpr auto operator<=>(TimePoint a, TimePoint b) = default;

 private:
  SimTime ns_ = 0;
};

inline std::string format_time(TimePoint p) { return format_time(p.ns()); }

// ---------------------------------------------------------------------------
// Freq: a CPU frequency. Stored in Hz as double so MHz-grid arithmetic and
// fractional scaling both stay exact enough (grid values are exact in
// double up to 2^53 Hz).
// ---------------------------------------------------------------------------

class Freq {
 public:
  constexpr Freq() = default;
  explicit constexpr Freq(double hertz) : hz_(hertz) {}

  static constexpr Freq hz(double v) { return Freq{v}; }
  static constexpr Freq mhz(double v) { return Freq{v * 1e6}; }
  static constexpr Freq ghz(double v) { return Freq{v * 1e9}; }

  constexpr double hz() const { return hz_; }
  constexpr double mhz() const { return hz_ / 1e6; }
  constexpr double ghz() const { return hz_ / 1e9; }

  friend constexpr Freq operator+(Freq a, Freq b) { return Freq{a.hz_ + b.hz_}; }
  friend constexpr Freq operator-(Freq a, Freq b) { return Freq{a.hz_ - b.hz_}; }
  friend constexpr Freq operator*(Freq f, double k) { return Freq{f.hz_ * k}; }
  friend constexpr Freq operator*(double k, Freq f) { return f * k; }
  friend constexpr Freq operator/(Freq f, double k) { return Freq{f.hz_ / k}; }
  /// Ratio of two frequencies is dimensionless (DVFS speed scaling).
  friend constexpr double operator/(Freq a, Freq b) { return a.hz_ / b.hz_; }
  /// freq × time → cycles (dimensionless count).
  friend constexpr double operator*(Freq f, Duration d) {
    return f.hz_ * to_seconds(d);
  }
  friend constexpr double operator*(Duration d, Freq f) { return f * d; }

  friend constexpr bool operator==(Freq a, Freq b) = default;
  friend constexpr auto operator<=>(Freq a, Freq b) = default;

 private:
  double hz_ = 0.0;
};

// ---------------------------------------------------------------------------
// Energy: joules. Accumulated per container by the energy model; the
// paper's controller comparison is on relative energy, so double precision
// is the right representation (sums of many small increments).
// ---------------------------------------------------------------------------

class Energy {
 public:
  constexpr Energy() = default;
  explicit constexpr Energy(double j) : joules_(j) {}

  static constexpr Energy zero() { return Energy{0.0}; }
  static constexpr Energy joules(double v) { return Energy{v}; }

  constexpr double joules() const { return joules_; }

  constexpr Energy& operator+=(Energy e) {
    joules_ += e.joules_;
    return *this;
  }
  constexpr Energy& operator-=(Energy e) {
    joules_ -= e.joules_;
    return *this;
  }

  friend constexpr Energy operator+(Energy a, Energy b) {
    return Energy{a.joules_ + b.joules_};
  }
  friend constexpr Energy operator-(Energy a, Energy b) {
    return Energy{a.joules_ - b.joules_};
  }
  friend constexpr Energy operator*(Energy e, double k) {
    return Energy{e.joules_ * k};
  }
  friend constexpr Energy operator*(double k, Energy e) { return e * k; }
  friend constexpr Energy operator/(Energy e, double k) {
    return Energy{e.joules_ / k};
  }
  /// energy ÷ time → power in watts.
  friend constexpr double operator/(Energy e, Duration d) {
    return e.joules_ / to_seconds(d);
  }
  /// Ratio of two energies is dimensionless.
  friend constexpr double operator/(Energy a, Energy b) {
    return a.joules_ / b.joules_;
  }

  friend constexpr bool operator==(Energy a, Energy b) = default;
  friend constexpr auto operator<=>(Energy a, Energy b) = default;

 private:
  double joules_ = 0.0;
};

}  // namespace sg
