// Per-container runtime metrics (paper §III-B).
//
// The container runtimes in the paper compute, per request:
//   execTime            — wall time from request arrival to reply
//   timeWaitingForFreeConn — time blocked waiting for a free connection /
//                         threadpool slot toward downstream services
// and derive the two SurgeGuard metrics:
//   execMetric  = execTime - timeWaitingForFreeConn            (eq. 2)
//   queueBuildup = execTime / execMetric                       (eq. 3)
// Averages are computed over a reporting window and periodically shared with
// Escalator (shared files/pipes in the paper; the MetricsBus here).
#pragma once

#include <cstdint>

#include "common/ewma.hpp"
#include "common/time.hpp"

namespace sg {

/// One completed request's passage through one container.
struct VisitRecord {
  int container = 0;
  TimePoint arrive;
  TimePoint depart;
  /// Total time spent blocked waiting for a free downstream connection.
  Duration conn_wait;
  /// Observed elapsed time since job start when the request arrived here
  /// (currentTime - pkt.startTime; feeds expectedTimeFromStart profiling).
  Duration time_from_start;
  /// Whether the arriving packet carried pkt.upscale > 0.
  bool upscale_hint = false;

  Duration exec_time() const { return depart - arrive; }
  Duration exec_metric() const { return exec_time() - conn_wait; }
};

/// Windowed averages published by a container runtime.
struct MetricsSnapshot {
  int container = 0;
  TimePoint window_end;
  long visits = 0;

  double avg_exec_time_ns = 0.0;
  double avg_exec_metric_ns = 0.0;
  double avg_conn_wait_ns = 0.0;
  double avg_time_from_start_ns = 0.0;

  /// queueBuildup (eq. 3) computed on the window means; 1.0 when the window
  /// had no connection waiting at all.
  double queue_buildup = 1.0;

  /// True if any request in the window arrived with an upscale hint.
  bool upscale_hint_received = false;

  bool valid() const { return visits > 0; }
};

/// Accumulates VisitRecords within the current reporting window.
class ContainerRuntimeMetrics {
 public:
  explicit ContainerRuntimeMetrics(int container = 0) : container_(container) {}

  void record_visit(const VisitRecord& rec);

  /// Closes the window: returns the snapshot and starts a fresh window.
  MetricsSnapshot flush(TimePoint now);

  /// Lifetime counters (profiling / sanity checks).
  std::uint64_t total_visits() const {
    return static_cast<std::uint64_t>(lifetime_exec_metric_.count());
  }
  double lifetime_avg_exec_metric_ns() const { return lifetime_exec_metric_.peek(); }
  double lifetime_avg_time_from_start_ns() const {
    return lifetime_time_from_start_.peek();
  }

 private:
  int container_;
  WindowedMean exec_time_;
  WindowedMean exec_metric_;
  WindowedMean conn_wait_;
  WindowedMean time_from_start_;
  bool hint_in_window_ = false;
  WindowedMean lifetime_exec_metric_;     // never flushed; used by profiling
  WindowedMean lifetime_time_from_start_;
};

}  // namespace sg
