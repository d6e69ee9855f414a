#include "trace/trace.hpp"

#include <algorithm>
#include <tuple>
#include <utility>

#include "common/assert.hpp"

namespace sg {

const char* to_string(SpanKind k) {
  switch (k) {
    case SpanKind::kVisit: return "visit";
    case SpanKind::kExec: return "exec";
    case SpanKind::kConnWait: return "conn-wait";
    case SpanKind::kNetHop: return "net-hop";
  }
  return "?";
}

const char* to_string(DecisionKind k) {
  switch (k) {
    case DecisionKind::kCoreGrant: return "core-grant";
    case DecisionKind::kCoreRevoke: return "core-revoke";
    case DecisionKind::kFreqBoost: return "freq-boost";
    case DecisionKind::kFreqLower: return "freq-lower";
    case DecisionKind::kUpscaleStamp: return "upscale-stamp";
    case DecisionKind::kAllocSet: return "alloc-set";
  }
  return "?";
}

namespace {

/// SplitMix64 finalizer: a high-quality 64-bit mix, evaluated on the
/// request id only — sampling must never touch the simulator RNG or the
/// traced/untraced event sequences would diverge.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Salt for the head-sampling hash (fixed, so runs stay comparable).
constexpr std::uint64_t kSampleSalt = 0x53757267;

}  // namespace

TraceSink::TraceSink(TraceOptions options) : options_(options) {
  SG_ASSERT_MSG(options_.head_sample_rate >= 0.0 &&
                    options_.head_sample_rate <= 1.0,
                "head_sample_rate outside [0, 1]");
  SG_ASSERT_MSG(options_.capacity > 0, "trace capacity must be positive");
}

bool TraceSink::head_sampled(RequestId id) const {
  if (options_.head_sample_rate >= 1.0) return true;
  if (options_.head_sample_rate <= 0.0) return false;
  // Top 53 bits -> uniform double in [0, 1).
  const double u = static_cast<double>(mix64(id ^ kSampleSalt) >> 11) *
                   0x1.0p-53;
  return u < options_.head_sample_rate;
}

bool TraceSink::begin_request(RequestId id, TimePoint now) {
  const bool sampled = head_sampled(id);
  if (!sampled && !options_.keep_slo_violators) return false;
  if (pending_.size() >= options_.max_pending) {
    ++stats_.pending_overflow;
    return false;
  }
  const auto [buffer, inserted] = pending_.insert(id);
  if (inserted) {
    if (free_.empty()) {
      free_.push_back(buffers_.size());
      buffers_.emplace_back();
    }
    *buffer = free_.back();
    free_.pop_back();
  }
  RequestTrace& t = buffers_[*buffer];
  t.id = id;
  t.begin = now;
  t.head_sampled = sampled;
  ++stats_.requests_recorded;
  return true;
}

void TraceSink::add_span(const TraceSpan& span) {
  SG_ASSERT_MSG(span.begin >= TimePoint::origin(),
                "trace span begins before the origin");
  SG_ASSERT_MSG(span.end >= span.begin, "trace span ends before it begins");
  const std::size_t* buffer = pending_.find(span.request_id);
  if (buffer == nullptr) return;  // not recorded (sampled out / overflow)
  buffers_[*buffer].spans.push_back(span);
  ++stats_.spans_recorded;
}

void TraceSink::end_request(RequestId id, TimePoint now, Duration latency) {
  const std::size_t* buffer = pending_.find(id);
  if (buffer == nullptr) return;
  RequestTrace& t = buffers_[*buffer];
  t.end = now;
  t.latency = latency;
  t.slo_violation = slo_ > Duration::zero() && latency > slo_;
  const bool keep =
      t.head_sampled || (options_.keep_slo_violators && t.slo_violation);
  if (!keep) {
    ++stats_.requests_discarded;
  } else {
    ++stats_.requests_kept;
    if (t.slo_violation) ++stats_.slo_violators_kept;
    // A copy, not a move: the recording buffer stays with the pool, and a
    // full ring's oldest slot keeps its capacity, so neither reallocates.
    if (kept_.size() < options_.capacity) {
      kept_.push_back(t);
    } else {
      kept_[head_] = t;
      head_ = (head_ + 1) % kept_.size();
      ++stats_.traces_evicted;
    }
  }
  release(id, *buffer);
}

void TraceSink::abandon_request(RequestId id) {
  const std::size_t* buffer = pending_.find(id);
  if (buffer == nullptr) return;
  ++stats_.requests_abandoned;
  release(id, *buffer);
}

void TraceSink::release(RequestId id, std::size_t buffer) {
  buffers_[buffer].spans.clear();
  free_.push_back(buffer);
  pending_.erase(id);
}

void TraceSink::add_decision(const DecisionEvent& e) {
  SG_ASSERT_MSG(e.at >= TimePoint::origin(),
                "decision event before the origin");
  if (decisions_.size() >= options_.max_decisions) {
    ++stats_.decisions_dropped;
    return;
  }
  decisions_.push_back(e);
  ++stats_.decisions_recorded;
}

namespace {

/// Full-content span key: spans with equal timestamps still sort
/// deterministically because every payload field is part of the key.
bool span_content_less(const TraceSpan& a, const TraceSpan& b) {
  return std::tie(a.begin, a.end, a.kind, a.container, a.src_container,
                  a.is_response, a.cpu_served_ns, a.boost_active_ns) <
         std::tie(b.begin, b.end, b.kind, b.container, b.src_container,
                  b.is_response, b.cpu_served_ns, b.boost_active_ns);
}

}  // namespace

TraceReport TraceSink::report() {
  TraceReport r;
  // Oldest first: the ring's slots from head_ on, then those before it.
  std::rotate(kept_.begin(), kept_.begin() + static_cast<std::ptrdiff_t>(head_),
              kept_.end());
  r.traces = std::exchange(kept_, {});
  head_ = 0;
  // Canonicalize: exports list spans in content order, not recording order.
  // The committed fingerprints and trace goldens pin this order, so the
  // sort stays even though recording order is itself deterministic.
  for (RequestTrace& t : r.traces) {
    std::stable_sort(t.spans.begin(), t.spans.end(), span_content_less);
  }
  r.decisions = std::exchange(decisions_, {});
  // Same-timestamp decisions on one node keep their event order (stable
  // sort); across nodes the node id breaks the tie. Pinned like the span
  // order above.
  std::stable_sort(r.decisions.begin(), r.decisions.end(),
                   [](const DecisionEvent& a, const DecisionEvent& b) {
                     return std::tie(a.at, a.node) < std::tie(b.at, b.node);
                   });
  r.containers = containers_;
  r.stats = stats_;
  r.slo = slo_;
  return r;
}

}  // namespace sg
