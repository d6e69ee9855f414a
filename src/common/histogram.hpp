// Log-bucketed latency histogram (HDR-histogram style).
//
// The wrk2_spike artifact reports a latency histogram per run; this is the
// in-simulator equivalent. Buckets grow geometrically so that relative error
// is bounded (~2.2% with 32 sub-buckets per octave) across ns..minutes.
#pragma once

#include <cstdint>
#include <vector>

#include "common/time.hpp"

namespace sg {

class LatencyHistogram {
 public:
  LatencyHistogram();

  /// Records one latency sample (values < 1ns clamp to the first bucket).
  void record(Duration latency);

  /// Records `n` identical samples.
  void record_n(Duration latency, std::uint64_t n);

  std::uint64_t count() const { return total_count_; }
  Duration min() const;
  Duration max() const;
  /// Mean latency in nanoseconds.
  double mean() const;

  /// Percentile in [0, 100]; returns the representative value of the bucket
  /// containing that rank. Returns 0 for an empty histogram.
  Duration percentile(double p) const;

  Duration p50() const { return percentile(50.0); }
  Duration p98() const { return percentile(98.0); }
  Duration p99() const { return percentile(99.0); }

 private:
  std::size_t bucket_index(Duration v) const;
  Duration bucket_value(std::size_t idx) const;

  /// Resolution: 32 sub-buckets per octave give ~2.2% max relative error,
  /// which is tighter than the run-to-run noise of any experiment.
  static constexpr int kSubBuckets = 32;

  std::vector<std::uint64_t> counts_;
  std::uint64_t total_count_ = 0;
  Duration min_seen_ = Duration::infinity();
  Duration max_seen_;
  double sum_ = 0.0;
};

}  // namespace sg
