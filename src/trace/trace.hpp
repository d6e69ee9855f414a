// Per-request distributed tracing with exact slack attribution.
//
// SurgeGuard's premise is per-packet slack accounting at ingress; this
// subsystem makes that slack inspectable per request. The TraceSink alone
// decides which requests are recorded: the client offers it each request
// at issue (begin_request applies the sampling rule), and while a sink is
// installed every instrumented layer offers it spans, which it files under
// a request it is recording or ignores:
//
//   kNetHop   — one wire transit (send stamp -> delivery), request or
//               response leg, recorded by sg::net.
//   kExec     — one CPU segment of a service visit (submit -> completion)
//               under processor sharing. `cpu_served_ns` carries the
//               integrated core share over the segment, so
//               wall = served + cpu-queue decomposes exactly.
//   kConnWait — time blocked on a connection-pool slot (the hidden
//               dependency of paper Fig. 5b).
//   kVisit    — the whole stay at one service (ingress -> reply), enclosing
//               its exec/conn-wait segments; `boost_active_ns` is the time
//               the container ran above base frequency (FirstResponder).
//
// For sequential task graphs the segments tile the request exactly:
//   e2e latency == sum(kExec walls) + sum(kConnWait) + sum(kNetHop),
// to the nanosecond (integration_trace_test asserts this).
//
// Controllers additionally log DecisionEvents (core grants/revokes,
// frequency boosts, upscale stamps) so a trace shows not only where slack
// went but which decision responded.
//
// Determinism: head sampling hashes the request id (SplitMix64) — it NEVER
// draws from the simulator RNG — and the sink schedules no events, so a
// run's event sequence and RNG streams are bit-identical whether tracing is
// enabled, disabled, or sampled differently. Exported artifacts are
// byte-identical for a fixed seed. Tracing disabled costs one null-pointer
// check at each instrumentation site.
//
// Memory is O(capacity + window span): kept traces live in a fixed-capacity
// ring (oldest evicted), in-flight buffers are bounded by max_pending, and
// decision events by max_decisions. In-flight requests are found in a
// RequestWindow by their dense id, one small entry per id between the
// oldest and the newest in flight. Kept spans are stored encoded
// (SpanList): the request id once per trace, then about 13 bytes per span
// where a TraceSpan takes 64, so the 4096-trace ring of read-1n-reqtrace
// holds 1.2 MB of spans, not 6.3 MB. An in-flight request buffers its spans
// decoded; end_request encodes them only when it keeps the request, and
// copies exactly the encoded bytes into the ring slot it overwrites, whose
// allocation is reused. Recording allocates nothing in steady state: a
// finished request's buffer goes back on a free list with its capacity,
// and the next begin_request takes the most recently freed one, still in
// cache.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "common/request_window.hpp"
#include "common/time.hpp"

namespace sg {

enum class SpanKind { kVisit, kExec, kConnWait, kNetHop };

const char* to_string(SpanKind k);

struct TraceSpan {
  RequestId request_id = 0;
  SpanKind kind = SpanKind::kExec;
  /// Container the time is attributed to (destination for net hops);
  /// kClientEndpoint (-1) for the client.
  int container = -1;
  /// Sending container (net hops only).
  int src_container = -1;
  TimePoint begin;
  TimePoint end;
  /// Net hops: response leg.
  bool is_response = false;
  /// kExec: integrated core share over [begin, end] — the time the job
  /// effectively held a core. wall minus this is CPU-queue time.
  double cpu_served_ns = 0.0;
  /// kVisit: time the serving container spent above base frequency.
  double boost_active_ns = 0.0;

  Duration wall() const { return end - begin; }
};

enum class DecisionKind {
  kCoreGrant,     // amount = cores granted
  kCoreRevoke,    // amount = cores revoked
  kFreqBoost,     // amount = resulting MHz
  kFreqLower,     // amount = resulting MHz
  kUpscaleStamp,  // amount = hint depth stamped on outgoing RPCs
  kAllocSet,      // amount = resulting cores (centralized allocators)
};

const char* to_string(DecisionKind k);

struct DecisionEvent {
  TimePoint at;
  DecisionKind kind = DecisionKind::kCoreGrant;
  /// Static string: "escalator", "first-responder", "parties", ...
  const char* controller = "";
  int node = -1;
  int container = -1;
  int amount = 0;
};

struct TraceOptions {
  /// Head-sampling rate in [0, 1]: fraction of requests recorded AND kept
  /// unconditionally. Pure hash of the request id — no RNG draws.
  double head_sample_rate = 1.0;
  /// Tail sampling: record every request, keep those whose e2e latency
  /// exceeds the SLO threshold even when not head-sampled.
  bool keep_slo_violators = true;
  /// Kept-trace ring capacity (oldest evicted beyond this).
  std::size_t capacity = 4096;
  /// In-flight request buffers; begin_request beyond this is refused.
  std::size_t max_pending = 1u << 16;
  /// Decision-event cap (events beyond it are counted, not stored).
  std::size_t max_decisions = 1u << 20;
};

/// One request's spans, encoded. The request id is stored once; each span
/// is one record:
///   - a header byte: the kind (bits 0-1), is_response (bit 2), which
///     optional fields follow (bit 3 src_container, bit 4 cpu_served_ns,
///     bit 5 boost_active_ns), a wide begin (bit 6) and wide fields (bit 7);
///   - container, then src_container only when it is not -1: a signed byte
///     each, or 4 bytes each when either does not fit one (wide fields);
///   - begin minus the previous span's begin (the first span's minus the
///     origin): 4 bytes signed, or 8 when it does not fit (wide begin);
///   - the wall: 4 bytes unsigned, or 8 with wide fields;
///   - the raw 8 bytes of cpu_served_ns and of boost_active_ns, each only
///     when its bit pattern is non-zero (so -0.0 and NaN payloads keep
///     theirs).
/// Differences wrap in 64 bits, so every field round-trips exactly. Fields
/// are fixed-width rather than varints: a read-1n-reqtrace span takes
/// about 12 bytes either way, and fixed widths encode and decode without a
/// loop per field.
/// Iterating decodes the spans in the order they were appended.
class SpanList {
 public:
  class const_iterator;

  explicit SpanList(RequestId id = 0) : id_(id) {}
  /// A copy holds the encoded spans only, not the append headroom.
  SpanList(const SpanList& other);
  SpanList& operator=(const SpanList& other);
  SpanList(SpanList&& other) noexcept;
  SpanList& operator=(SpanList&& other) noexcept;

  RequestId request_id() const { return id_; }
  /// Empties the list and files later spans under `id`; keeps capacity.
  void reset(RequestId id);
  /// Appends a span of this list's request (asserted).
  void push_back(const TraceSpan& span);

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  /// Bytes the encoded spans occupy.
  std::size_t bytes() const { return used_; }

  const_iterator begin() const;
  const_iterator end() const;

 private:
  RequestId id_;
  /// The encoded spans are bytes_[0, used_). push_back encodes in place
  /// past them, so it first grows bytes_ to hold a record of any size.
  std::vector<std::uint8_t> bytes_;
  std::size_t used_ = 0;
  /// The last appended span's begin, which the next one is a delta from.
  std::int64_t last_begin_ = 0;
  std::size_t count_ = 0;
};

/// Decodes one span per step; a dereferenced span lives until the next
/// increment.
class SpanList::const_iterator {
 public:
  using iterator_category = std::input_iterator_tag;
  using value_type = TraceSpan;
  using difference_type = std::ptrdiff_t;
  using pointer = const TraceSpan*;
  using reference = const TraceSpan&;

  const_iterator() = default;

  reference operator*() const { return span_; }
  pointer operator->() const { return &span_; }
  const_iterator& operator++();
  const_iterator operator++(int) {
    const_iterator old = *this;
    ++*this;
    return old;
  }
  friend bool operator==(const const_iterator& a, const const_iterator& b) {
    return a.at_ == b.at_;
  }

 private:
  friend class SpanList;
  const_iterator(const std::uint8_t* at, const std::uint8_t* end,
                 RequestId id);
  /// Decodes the record at at_ (the begin delta is from span_.begin).
  void decode();

  /// The current record, the one after it, and the end of the list.
  const std::uint8_t* at_ = nullptr;
  const std::uint8_t* next_ = nullptr;
  const std::uint8_t* end_ = nullptr;
  TraceSpan span_;
};

inline SpanList::const_iterator SpanList::begin() const {
  return {bytes_.data(), bytes_.data() + used_, id_};
}

inline SpanList::const_iterator SpanList::end() const {
  const std::uint8_t* end = bytes_.data() + used_;
  return {end, end, id_};
}

/// One kept request: its spans in recording order plus keep provenance.
struct RequestTrace {
  TimePoint begin;
  TimePoint end;
  Duration latency;
  bool head_sampled = false;
  bool slo_violation = false;
  /// Encoded; carries the request id.
  SpanList spans;

  RequestId id() const { return spans.request_id(); }
};

struct TraceStats {
  std::uint64_t requests_recorded = 0;  // began buffering spans
  std::uint64_t requests_kept = 0;      // survived sampling at completion
  std::uint64_t requests_discarded = 0; // completed, sampled out
  std::uint64_t requests_abandoned = 0; // dropped by the client
  std::uint64_t pending_overflow = 0;   // refused: too many in flight
  std::uint64_t traces_evicted = 0;     // ring overflow
  std::uint64_t spans_recorded = 0;
  std::uint64_t slo_violators_kept = 0;
  std::uint64_t decisions_recorded = 0;
  std::uint64_t decisions_dropped = 0;
};

/// Name/placement metadata exporters use to label containers.
struct TraceContainerInfo {
  int id = -1;
  int node = -1;
  std::string name;
};

/// Detached, self-contained snapshot of a sink — the sink (and the whole
/// testbed) can be torn down before exporters run.
struct TraceReport {
  std::vector<RequestTrace> traces;  // completion order
  std::vector<DecisionEvent> decisions;
  std::vector<TraceContainerInfo> containers;
  TraceStats stats;
  /// SLO threshold in force (zero = tail sampling off).
  Duration slo;
};

class TraceSink {
 public:
  explicit TraceSink(TraceOptions options);

  /// Deterministic head-sampling verdict for a request id (pure hash).
  bool head_sampled(RequestId id) const;

  /// Tail-sampling threshold; completions with latency > slo are kept
  /// regardless of head sampling. Zero disables (set once QoS is known).
  void set_slo_threshold(Duration slo) { slo_ = slo; }

  /// Opens a span buffer for a request. Returns false, and records nothing
  /// for this request, when it is sampled out (neither head sampled nor
  /// eligible for tail sampling: counted nowhere) or when max_pending
  /// in-flight buffers already exist (counted as pending_overflow).
  /// Request ids must be dense (see RequestWindow); a repeated call for an
  /// in-flight id keeps its spans.
  bool begin_request(RequestId id, TimePoint now);

  /// Appends a span to its request's buffer; ignored (O(1)) when the
  /// request is not being recorded. The span must not begin before the
  /// origin nor end before it begins (asserted).
  void add_span(const TraceSpan& span);

  /// Completes a request: applies the keep decision (head sample || SLO
  /// violation) and moves the buffer into the kept ring or discards it.
  void end_request(RequestId id, TimePoint now, Duration latency);

  /// Drops an in-flight buffer (client abandoned the request).
  void abandon_request(RequestId id);

  /// Records a decision; `e.at` must not be before the origin (asserted).
  void add_decision(const DecisionEvent& e);

  /// Container metadata for exporters (typically set once before report()).
  void set_container_info(std::vector<TraceContainerInfo> info) {
    containers_ = std::move(info);
  }

  const TraceStats& stats() const { return stats_; }
  std::size_t kept_count() const { return kept_.size(); }
  std::size_t pending_count() const { return pending_.size(); }

  /// The report for export. It moves the kept traces and the decisions
  /// out, so it empties the sink: call it once, when recording is done.
  /// In-flight buffers are not included. Span order within a trace and
  /// decision order are canonicalized (content-keyed sorts); exported
  /// artifacts pin that order.
  TraceReport report();

 private:
  /// An in-flight request. Its spans are buffered decoded, and encoded
  /// only if the request is kept.
  struct Recording {
    TimePoint begin;
    bool head_sampled = false;
    std::vector<TraceSpan> spans;
  };

  /// Encodes `spans` of request `id` into `out`, which gets exactly the
  /// bytes they take (its allocation is reused when large enough).
  void encode(RequestId id, const std::vector<TraceSpan>& spans,
              SpanList& out);
  /// Retires in-flight request `id` and frees its buffer.
  void release(RequestId id, std::size_t buffer);

  TraceOptions options_;
  Duration slo_;
  /// In-flight requests: the index of each one's buffer in buffers_.
  RequestWindow<std::size_t> pending_;
  /// Span buffers, in flight or free; free_ lists the free ones, most
  /// recently freed last. A buffer is emptied when it is freed and keeps
  /// its capacity.
  std::vector<Recording> buffers_;
  std::vector<std::size_t> free_;
  /// Where encode() writes before copying: its spare room never reaches a
  /// kept trace.
  SpanList encoded_;
  /// Kept-trace ring: grows to `capacity` slots in completion order, then
  /// each new trace overwrites the oldest, kept_[head_].
  std::vector<RequestTrace> kept_;
  std::size_t head_ = 0;
  std::vector<DecisionEvent> decisions_;
  std::vector<TraceContainerInfo> containers_;
  TraceStats stats_;
};

}  // namespace sg
