#include "metrics/container_metrics.hpp"

#include "common/assert.hpp"

namespace sg {

void ContainerRuntimeMetrics::record_visit(const VisitRecord& rec) {
  SG_ASSERT_MSG(rec.depart >= rec.arrive, "visit departs before it arrives");
  SG_ASSERT_MSG(rec.conn_wait >= Duration::zero() &&
                    rec.conn_wait <= rec.exec_time(),
                "conn_wait outside [0, exec_time]");
  exec_time_.add(static_cast<double>(rec.exec_time().ns()));
  exec_metric_.add(static_cast<double>(rec.exec_metric().ns()));
  conn_wait_.add(static_cast<double>(rec.conn_wait.ns()));
  time_from_start_.add(static_cast<double>(rec.time_from_start.ns()));
  hint_in_window_ = hint_in_window_ || rec.upscale_hint;
  lifetime_exec_metric_.add(static_cast<double>(rec.exec_metric().ns()));
  lifetime_time_from_start_.add(static_cast<double>(rec.time_from_start.ns()));
}

MetricsSnapshot ContainerRuntimeMetrics::flush(TimePoint now) {
  MetricsSnapshot snap;
  snap.container = container_;
  snap.window_end = now;
  snap.visits = exec_time_.count();
  snap.avg_exec_time_ns = exec_time_.take();
  snap.avg_exec_metric_ns = exec_metric_.take();
  snap.avg_conn_wait_ns = conn_wait_.take();
  snap.avg_time_from_start_ns = time_from_start_.take();
  snap.upscale_hint_received = hint_in_window_;
  hint_in_window_ = false;
  // queueBuildup (eq. 3) on window means. Guard the denominator: a window
  // where requests spent ~all time waiting for connections would divide by
  // ~0; clamp to a large finite ratio.
  if (snap.visits > 0 && snap.avg_exec_metric_ns > 1.0) {
    snap.queue_buildup = snap.avg_exec_time_ns / snap.avg_exec_metric_ns;
  } else if (snap.visits > 0) {
    snap.queue_buildup = 1e6;
  } else {
    snap.queue_buildup = 1.0;
  }
  return snap;
}

}  // namespace sg
