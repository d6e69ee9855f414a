#include "common/histogram.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace sg {
namespace {

// 63 octaves cover the full positive int64 range.
constexpr int kOctaves = 63;

}  // namespace

LatencyHistogram::LatencyHistogram(int sub_buckets_per_octave)
    : sub_buckets_(sub_buckets_per_octave),
      counts_(static_cast<std::size_t>(kOctaves) *
              static_cast<std::size_t>(sub_buckets_per_octave)) {}

std::size_t LatencyHistogram::bucket_index(Duration v) const {
  if (v < kNanosecond) v = kNanosecond;
  const auto uv = static_cast<std::uint64_t>(v.ns());
  const int octave = 63 - std::countl_zero(uv);
  // Position within the octave, in [0, 1).
  const double base = static_cast<double>(std::uint64_t{1} << octave);
  const double frac = (static_cast<double>(uv) - base) / base;
  int sub = static_cast<int>(frac * sub_buckets_);
  sub = std::clamp(sub, 0, sub_buckets_ - 1);
  std::size_t idx = static_cast<std::size_t>(octave) *
                        static_cast<std::size_t>(sub_buckets_) +
                    static_cast<std::size_t>(sub);
  return std::min(idx, counts_.size() - 1);
}

Duration LatencyHistogram::bucket_value(std::size_t idx) const {
  const auto octave = static_cast<int>(idx / static_cast<std::size_t>(sub_buckets_));
  const auto sub = static_cast<int>(idx % static_cast<std::size_t>(sub_buckets_));
  const double base = std::ldexp(1.0, octave);
  // Midpoint of the sub-bucket.
  const double v = base * (1.0 + (static_cast<double>(sub) + 0.5) /
                                     static_cast<double>(sub_buckets_));
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

void LatencyHistogram::merge(const LatencyHistogram& other) {
  // Geometry must match for a bucketwise merge to be meaningful.
  if (other.counts_.size() != counts_.size()) return;
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_count_ += other.total_count_;
  min_seen_ = std::min(min_seen_, other.min_seen_);
  max_seen_ = std::max(max_seen_, other.max_seen_);
  sum_ += other.sum_;
}

void LatencyHistogram::reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  total_count_ = 0;
  min_seen_ = Duration::infinity();
  max_seen_ = Duration::zero();
  sum_ = 0.0;
}

std::uint64_t LatencyHistogram::count_at_or_above(Duration threshold) const {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] > 0 && bucket_value(i) >= threshold) n += counts_[i];
  }
  return n;
}

std::vector<LatencyHistogram::Bucket> LatencyHistogram::nonzero_buckets() const {
  std::vector<Bucket> out;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] > 0) out.push_back({bucket_value(i), counts_[i]});
  }
  return out;
}

}  // namespace sg
