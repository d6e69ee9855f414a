#include "cluster/container.hpp"

#include <cmath>

#include "cluster/membw.hpp"
#include "common/assert.hpp"

namespace sg {

Container::Container(Simulator& sim, Params params)
    : sim_(sim),
      params_(std::move(params)),
      cores_(params_.initial_cores),
      freq_(kDvfs.quantize(kDvfs.min_mhz)),
      speed_(kDvfs.speed(freq_)),
      busy_watts_(kEnergy.busy_core_watts(freq_)),
      core_timeline_(static_cast<double>(cores_)),
      freq_timeline_(static_cast<double>(freq_)) {
  SG_ASSERT(cores_ >= 0);
}

void Container::refresh_rate() {
  const int n = static_cast<int>(jobs_.size());
  if (n == 0 || cores_ == 0) {
    rate_ = 0.0;
    return;
  }
  const double share =
      std::min(1.0, static_cast<double>(cores_) / static_cast<double>(n));
  const double interference =
      membw_ != nullptr ? membw_->interference_factor() : 1.0;
  rate_ = speed_ * share * interference * speed_scale_;
}

double Container::busy_cores() const {
  return std::min(static_cast<double>(jobs_.size()),
                  static_cast<double>(cores_));
}

void Container::advance() {
  const TimePoint now = sim_.now();
  const Duration dt = now - last_advance_;
  if (dt <= Duration::zero()) return;
  const double busy = busy_cores();
  if (busy > 0.0) {
    // kEnergy.energy(busy, freq_, dt), same product in the same order.
    energy_joules_ += busy_watts_ * busy * dt.seconds();
    busy_core_seconds_ += busy * dt.seconds();
    // busy / N == min(1, cores/N): the common per-job core share.
    share_integral_ns_ += static_cast<double>(dt.ns()) * busy /
                          static_cast<double>(jobs_.size());
    vtime_ += static_cast<double>(dt.ns()) * rate();
  }
  // Allocated-but-idle cores poll (threadpools, RPC runtimes) and draw
  // power; this charges over-allocation even when no request is running.
  const double idle_cores = static_cast<double>(cores_) - busy;
  if (idle_cores > 0.0) {
    energy_joules_ +=
        kEnergy.allocated_idle_watts * idle_cores * dt.seconds();
  }
  last_advance_ = now;
}

void Container::reschedule() {
  // Idle, or starved: jobs stall until cores/freq return.
  const double r = finish_heap_.empty() ? 0.0 : rate();
  if (r <= 0.0) {
    if (completion_event_ != kInvalidEvent) {
      sim_.cancel(completion_event_);
      completion_event_ = kInvalidEvent;
    }
    return;
  }
  const double work_left = finish_heap_.top().finish_v - vtime_;
  const double dt = std::max(0.0, work_left) / r;
  // ceil so that by the event time the job has definitely finished (modulo
  // float error handled in on_completion_event).
  const Duration delay{static_cast<std::int64_t>(std::ceil(dt))};
  // Re-keying the armed event takes a fresh sequence number, exactly as
  // cancelling it and scheduling a new one would, so same-instant order is
  // unchanged. It is re-keyed even when its time is unchanged.
  if (completion_event_ == kInvalidEvent) {
    completion_event_ =
        sim_.schedule_after(delay, [this]() { on_completion_event(); });
  } else {
    const bool rearmed = sim_.reschedule_after(completion_event_, delay);
    SG_ASSERT_MSG(rearmed, "container completion event not pending");
  }
}

void Container::on_completion_event() {
  completion_event_ = kInvalidEvent;
  advance();
  // Complete everything that has received its full work. The epsilon covers
  // accumulated floating-point error: half a nanosecond of progress at the
  // current rate (rate() > 0 here because the event was armed).
  const double eps = std::max(rate(), 1e-9) * 0.5;
  bool completed_any = false;
  while (!finish_heap_.empty() &&
         finish_heap_.top().finish_v <= vtime_ + eps) {
    InlineCallback cb = jobs_.take(finish_heap_.top().job);
    finish_heap_.pop();
    refresh_rate();
    ++jobs_completed_;
    completed_any = true;
    // Callback may submit new jobs / change allocations re-entrantly; state
    // is consistent at this point.
    cb();
  }
  // Guard against a stuck heap: if rounding left the top job un-finished,
  // rescheduling computes a fresh (tiny but positive) delay, so progress is
  // guaranteed. The callbacks ran at this same instant, so the accounting
  // advanced above is still current. completed_any gates the membw update:
  // an event that completed nothing changed no activity the domain reads.
  reschedule();
  if (completed_any && membw_ != nullptr) {
    membw_->on_member_activity_changed();
  }
}

void Container::submit(double work_ns_ref, InlineCallback on_complete) {
  SG_ASSERT_MSG(work_ns_ref >= 0.0, "negative work");
  advance();
  finish_heap_.push(HeapEntry{vtime_ + work_ns_ref, next_job_seq_++,
                              jobs_.insert(std::move(on_complete))});
  refresh_rate();
  reschedule();
  if (membw_ != nullptr) membw_->on_member_activity_changed();
}

void Container::set_cores(int n) {
  SG_ASSERT(n >= 0);
  if (n == cores_) return;
  advance();
  cores_ = n;
  core_timeline_.set(sim_.now(), static_cast<double>(n));
  refresh_rate();
  reschedule();
  if (membw_ != nullptr) membw_->on_member_activity_changed();
}

void Container::set_frequency(FreqMhz f) {
  const FreqMhz q = kDvfs.quantize(f);
  if (q == freq_) return;
  advance();
  freq_ = q;
  speed_ = kDvfs.speed(q);
  busy_watts_ = kEnergy.busy_core_watts(q);
  freq_timeline_.set(sim_.now(), static_cast<double>(q));
  refresh_rate();
  reschedule();
}

void Container::set_speed_scale(double scale) {
  SG_ASSERT_MSG(scale >= 0.0 && scale <= 1.0, "speed scale outside [0, 1]");
  if (scale == speed_scale_) return;
  advance();
  speed_scale_ = scale;
  refresh_rate();
  reschedule();
}

void Container::sync() { advance(); }

void Container::attach_membw(MemBwDomain* domain) {
  SG_ASSERT_MSG(membw_ == nullptr, "container already in a membw domain");
  advance();
  membw_ = domain;
  refresh_rate();
  domain->add_member(this);
  domain->on_member_activity_changed();
}

}  // namespace sg
