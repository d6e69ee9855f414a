#include "common/histogram.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace sg {
namespace {

// 63 octaves cover the full positive int64 range.
constexpr int kOctaves = 63;

}  // namespace

LatencyHistogram::LatencyHistogram()
    : counts_(static_cast<std::size_t>(kOctaves) *
              static_cast<std::size_t>(kSubBuckets)) {}

std::size_t LatencyHistogram::bucket_index(Duration v) const {
  if (v < kNanosecond) v = kNanosecond;
  const auto uv = static_cast<std::uint64_t>(v.ns());
  const int octave = 63 - std::countl_zero(uv);
  // Position within the octave, in [0, 1).
  const double base = static_cast<double>(std::uint64_t{1} << octave);
  const double frac = (static_cast<double>(uv) - base) / base;
  int sub = static_cast<int>(frac * kSubBuckets);
  sub = std::clamp(sub, 0, kSubBuckets - 1);
  std::size_t idx = static_cast<std::size_t>(octave) *
                        static_cast<std::size_t>(kSubBuckets) +
                    static_cast<std::size_t>(sub);
  return std::min(idx, counts_.size() - 1);
}

Duration LatencyHistogram::bucket_value(std::size_t idx) const {
  const auto octave = static_cast<int>(idx / static_cast<std::size_t>(kSubBuckets));
  const auto sub = static_cast<int>(idx % static_cast<std::size_t>(kSubBuckets));
  const double base = std::ldexp(1.0, octave);
  // Midpoint of the sub-bucket.
  const double v = base * (1.0 + (static_cast<double>(sub) + 0.5) /
                                     static_cast<double>(kSubBuckets));
  return Duration{static_cast<std::int64_t>(v)};
}

void LatencyHistogram::record(Duration latency) { record_n(latency, 1); }

void LatencyHistogram::record_n(Duration latency, std::uint64_t n) {
  if (n == 0) return;
  if (latency < kNanosecond) latency = kNanosecond;
  counts_[bucket_index(latency)] += n;
  total_count_ += n;
  min_seen_ = std::min(min_seen_, latency);
  max_seen_ = std::max(max_seen_, latency);
  sum_ += static_cast<double>(latency.ns()) * static_cast<double>(n);
}

Duration LatencyHistogram::min() const {
  return total_count_ == 0 ? Duration::zero() : min_seen_;
}

Duration LatencyHistogram::max() const { return max_seen_; }

double LatencyHistogram::mean() const {
  return total_count_ == 0 ? 0.0 : sum_ / static_cast<double>(total_count_);
}

Duration LatencyHistogram::percentile(double p) const {
  if (total_count_ == 0) return Duration::zero();
  const double clamped = std::clamp(p, 0.0, 100.0);
  const auto target = static_cast<std::uint64_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(total_count_)));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cumulative += counts_[i];
    if (cumulative >= target && counts_[i] > 0) {
      return std::clamp(bucket_value(i), min(), max());
    }
  }
  return max_seen_;
}

}  // namespace sg
