// Exponentially weighted moving averages.
//
// The paper's sensitivity tracker (SurgeGuard Design Feature #3) keeps an
// exponential running average of execution time per (container, core-count)
// cell with alpha = 0.5; metric aggregation in the container runtimes uses
// the same primitive.
#pragma once

namespace sg {

/// EWMA with update rule: avg <- alpha * avg + (1 - alpha) * sample.
///
/// Note the paper's convention (SurgeGuard eq. in III-C): alpha weights the
/// *old* value, so a large (1 - alpha) weights new samples heavily. The
/// paper uses alpha = 0.5.
class Ewma {
 public:
  explicit Ewma(double alpha = 0.5) : alpha_(alpha) {}

  /// Feeds one sample. The first sample initializes the average directly.
  void add(double sample) {
    if (!initialized_) {
      value_ = sample;
      initialized_ = true;
    } else {
      value_ = alpha_ * value_ + (1.0 - alpha_) * sample;
    }
  }

  bool initialized() const { return initialized_; }
  double value() const { return value_; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool initialized_ = false;
};

/// Windowed mean: accumulates samples, then `take()` returns the mean and
/// clears. Container runtimes use this to publish per-interval averaged
/// metrics to Escalator (paper Fig. 7, step 4).
class WindowedMean {
 public:
  void add(double sample) {
    sum_ += sample;
    ++n_;
  }

  bool empty() const { return n_ == 0; }
  long count() const { return n_; }

  /// Mean of the current window without clearing (0 if empty).
  double peek() const { return n_ == 0 ? 0.0 : sum_ / static_cast<double>(n_); }

  /// Returns the window mean and resets the accumulator.
  double take() {
    const double m = peek();
    sum_ = 0.0;
    n_ = 0;
    return m;
  }

 private:
  double sum_ = 0.0;
  long n_ = 0;
};

}  // namespace sg
