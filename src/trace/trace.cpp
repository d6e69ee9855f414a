#include "trace/trace.hpp"

#include <algorithm>
#include <cstring>
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

// SpanList record layout: header bits above the 2-bit kind.
constexpr std::uint8_t kKindMask = 0x3;
constexpr std::uint8_t kIsResponse = 1u << 2;
constexpr std::uint8_t kHasSrc = 1u << 3;
constexpr std::uint8_t kHasServed = 1u << 4;
constexpr std::uint8_t kHasBoost = 1u << 5;
constexpr std::uint8_t kWideBegin = 1u << 6;
constexpr std::uint8_t kWide = 1u << 7;
static_assert(static_cast<int>(SpanKind::kNetHop) <= kKindMask,
              "a SpanKind (kNetHop is the last) outgrew the header's kind bits");
/// Header, wide container and src_container, wide begin delta and wall,
/// two doubles.
constexpr std::size_t kMaxRecord = 1 + 2 * 4 + 2 * 8 + 2 * 8;

/// Two's-complement wrap: a difference of any two int64 values, and its
/// inverse, stay exact.
std::int64_t wrap_sub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}

std::int64_t wrap_add(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}

/// Whether `v` survives a round trip through a Narrow.
template <typename Narrow>
bool fits(std::int64_t v) {
  return static_cast<std::int64_t>(static_cast<Narrow>(v)) == v;
}

/// Stores `v` as a Field at `p` (host byte order: records never leave the
/// process) and returns the end of what it wrote.
template <typename Field>
std::uint8_t* put(std::uint8_t* p, Field v) {
  std::memcpy(p, &v, sizeof(v));
  return p + sizeof(v);
}

template <typename Field>
std::int64_t get(const std::uint8_t*& p) {
  Field v;
  std::memcpy(&v, p, sizeof(v));
  p += sizeof(v);
  return static_cast<std::int64_t>(v);
}

std::uint64_t bits_of(double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

}  // namespace

SpanList::SpanList(const SpanList& other)
    : id_(other.id_),
      bytes_(other.bytes_.begin(),
             other.bytes_.begin() + static_cast<std::ptrdiff_t>(other.used_)),
      used_(other.used_),
      last_begin_(other.last_begin_),
      count_(other.count_) {}

SpanList& SpanList::operator=(const SpanList& other) {
  if (this != &other) {
    id_ = other.id_;
    // Reuses this list's allocation when it is large enough.
    bytes_.assign(other.bytes_.begin(),
                  other.bytes_.begin() +
                      static_cast<std::ptrdiff_t>(other.used_));
    used_ = other.used_;
    last_begin_ = other.last_begin_;
    count_ = other.count_;
  }
  return *this;
}

SpanList::SpanList(SpanList&& other) noexcept
    : id_(other.id_),
      bytes_(std::move(other.bytes_)),
      used_(std::exchange(other.used_, 0)),
      last_begin_(std::exchange(other.last_begin_, 0)),
      count_(std::exchange(other.count_, 0)) {}

SpanList& SpanList::operator=(SpanList&& other) noexcept {
  id_ = other.id_;
  bytes_ = std::move(other.bytes_);
  used_ = std::exchange(other.used_, 0);
  last_begin_ = std::exchange(other.last_begin_, 0);
  count_ = std::exchange(other.count_, 0);
  return *this;
}

void SpanList::reset(RequestId id) {
  id_ = id;
  used_ = 0;
  last_begin_ = 0;
  count_ = 0;
}

void SpanList::push_back(const TraceSpan& span) {
  SG_ASSERT_MSG(span.request_id == id_, "span filed under another request");
  if (bytes_.size() - used_ < kMaxRecord) {
    bytes_.resize(std::max(2 * bytes_.size(), used_ + kMaxRecord));
  }
  const std::int64_t begin = span.begin.ns();
  const std::int64_t delta = wrap_sub(begin, last_begin_);
  const std::int64_t wall = wrap_sub(span.end.ns(), begin);
  const bool has_src = span.src_container != -1;
  const bool wide_begin = !fits<std::int32_t>(delta);
  const bool wide = !fits<std::int8_t>(span.container) ||
                    !fits<std::int8_t>(span.src_container) ||
                    !fits<std::uint32_t>(wall);
  const std::uint64_t served = bits_of(span.cpu_served_ns);
  const std::uint64_t boost = bits_of(span.boost_active_ns);
  std::uint8_t* const record = bytes_.data() + used_;
  *record = static_cast<std::uint8_t>(
      static_cast<unsigned>(span.kind) |
      (span.is_response ? kIsResponse : 0u) | (has_src ? kHasSrc : 0u) |
      (served != 0 ? kHasServed : 0u) | (boost != 0 ? kHasBoost : 0u) |
      (wide_begin ? kWideBegin : 0u) | (wide ? kWide : 0u));
  std::uint8_t* p = record + 1;
  if (wide) {
    p = put<std::int32_t>(p, span.container);
    if (has_src) p = put<std::int32_t>(p, span.src_container);
  } else {
    p = put<std::int8_t>(p, static_cast<std::int8_t>(span.container));
    if (has_src) {
      p = put<std::int8_t>(p, static_cast<std::int8_t>(span.src_container));
    }
  }
  p = wide_begin ? put<std::int64_t>(p, delta)
                 : put<std::int32_t>(p, static_cast<std::int32_t>(delta));
  p = wide ? put<std::int64_t>(p, wall)
           : put<std::uint32_t>(p, static_cast<std::uint32_t>(wall));
  if (served != 0) p = put(p, served);
  if (boost != 0) p = put(p, boost);
  used_ = static_cast<std::size_t>(p - bytes_.data());
  last_begin_ = begin;
  ++count_;
}

SpanList::const_iterator::const_iterator(const std::uint8_t* at,
                                         const std::uint8_t* end,
                                         RequestId id)
    : at_(at), end_(end) {
  span_.request_id = id;
  span_.begin = TimePoint::origin();
  if (at_ != end_) decode();
}

SpanList::const_iterator& SpanList::const_iterator::operator++() {
  at_ = next_;
  if (at_ != end_) decode();
  return *this;
}

void SpanList::const_iterator::decode() {
  const std::uint8_t* p = at_;
  const std::uint8_t header = *p++;
  const bool wide = (header & kWide) != 0;
  span_.kind = static_cast<SpanKind>(header & kKindMask);
  span_.is_response = (header & kIsResponse) != 0;
  span_.container = static_cast<int>(wide ? get<std::int32_t>(p)
                                          : get<std::int8_t>(p));
  span_.src_container = -1;
  if ((header & kHasSrc) != 0) {
    span_.src_container = static_cast<int>(wide ? get<std::int32_t>(p)
                                                : get<std::int8_t>(p));
  }
  const std::int64_t delta = (header & kWideBegin) != 0
                                 ? get<std::int64_t>(p)
                                 : get<std::int32_t>(p);
  const std::int64_t wall = wide ? get<std::int64_t>(p) : get<std::uint32_t>(p);
  span_.begin = TimePoint{wrap_add(span_.begin.ns(), delta)};
  span_.end = TimePoint{wrap_add(span_.begin.ns(), wall)};
  const auto get_double = [&p](bool present) {
    double d = 0.0;
    if (present) {
      std::memcpy(&d, p, sizeof(d));
      p += sizeof(d);
    }
    return d;
  };
  span_.cpu_served_ns = get_double((header & kHasServed) != 0);
  span_.boost_active_ns = get_double((header & kHasBoost) != 0);
  next_ = p;
}

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
  Recording& r = buffers_[*buffer];
  r.begin = now;
  r.head_sampled = sampled;
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
  const Recording& r = buffers_[*buffer];
  const bool slo_violation = slo_ > Duration::zero() && latency > slo_;
  const bool keep =
      r.head_sampled || (options_.keep_slo_violators && slo_violation);
  if (!keep) {
    ++stats_.requests_discarded;
  } else {
    ++stats_.requests_kept;
    if (slo_violation) ++stats_.slo_violators_kept;
    RequestTrace* t = nullptr;
    if (kept_.size() < options_.capacity) {
      t = &kept_.emplace_back();
    } else {
      t = &kept_[head_];
      head_ = (head_ + 1) % kept_.size();
      ++stats_.traces_evicted;
    }
    t->begin = r.begin;
    t->end = now;
    t->latency = latency;
    t->head_sampled = r.head_sampled;
    t->slo_violation = slo_violation;
    encode(id, r.spans, t->spans);
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

void TraceSink::encode(RequestId id, const std::vector<TraceSpan>& spans,
                       SpanList& out) {
  encoded_.reset(id);
  for (const TraceSpan& s : spans) encoded_.push_back(s);
  out = encoded_;
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
  std::vector<TraceSpan> spans;
  for (RequestTrace& t : r.traces) {
    spans.assign(t.spans.begin(), t.spans.end());
    std::stable_sort(spans.begin(), spans.end(), span_content_less);
    encode(t.id(), spans, t.spans);
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
