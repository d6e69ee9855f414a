// Deterministic random-number generation for simulations.
//
// Every Simulator owns its own Rng seeded from the experiment seed, so a
// sweep of replications can run on separate threads with no shared state and
// bit-identical results for a given seed (C++ Core Guidelines CP.2: avoid
// data races by not sharing).
#pragma once

#include <array>
#include <cstdint>

#include "common/time.hpp"

namespace sg {

/// xoshiro256** 1.0 (Blackman & Vigna), seeded via SplitMix64.
///
/// Chosen over std::mt19937_64 for speed and a compact, well-understood
/// state; the simulator draws one variate per request arrival and per
/// service-time sample, which is on the hot path.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) { reseed(seed); }

  /// Re-initializes the full state from a 64-bit seed via SplitMix64.
  void reseed(std::uint64_t seed);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Exponentially distributed variate with the given mean (> 0).
  double exponential(double mean);

  /// Standard-normal variate (Box-Muller, cached pair).
  double normal();

  /// Normal variate with mean/stddev.
  double normal(double mean, double stddev);

  /// Log-normal variate exp(mu + sigma * normal()): mu and sigma are those
  /// of the underlying normal. Service-time jitter in the application model
  /// is log-normal, matching the right-skewed service times observed in
  /// microservice deployments; its callers solve mu once from the target
  /// mean, mu = log(mean) - sigma^2 / 2, since E = exp(mu + sigma^2 / 2).
  double lognormal(double mu, double sigma);

  /// Bernoulli draw with probability p of true.
  bool bernoulli(double p);

  /// Forks an independent generator (distinct stream) for a sub-component.
  Rng fork();

 private:
  std::array<std::uint64_t, 4> s_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace sg
