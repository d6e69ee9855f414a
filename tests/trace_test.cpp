#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstring>
#include <deque>
#include <iterator>
#include <limits>
#include <map>
#include <random>
#include <tuple>
#include <utility>
#include <vector>

#include "trace/export.hpp"

namespace sg {
namespace {

TraceSpan span(RequestId id, SpanKind kind, int container, std::int64_t begin,
               std::int64_t end) {
  TraceSpan s;
  s.request_id = id;
  s.kind = kind;
  s.container = container;
  s.begin = TimePoint{begin};
  s.end = TimePoint{end};
  return s;
}

TEST(TraceSinkTest, HeadSamplingIsDeterministicAndRateMonotone) {
  TraceOptions a, b;
  a.head_sample_rate = 0.3;
  b.head_sample_rate = 0.3;
  TraceSink s1(a), s2(b);
  int sampled = 0;
  for (RequestId id = 1; id <= 2000; ++id) {
    EXPECT_EQ(s1.head_sampled(id), s2.head_sampled(id));
    if (s1.head_sampled(id)) ++sampled;
  }
  // SplitMix64 hash: the hit rate lands near 30% for any id set.
  EXPECT_GT(sampled, 2000 * 0.2);
  EXPECT_LT(sampled, 2000 * 0.4);

  // Raising the rate never un-samples a request (threshold comparison on
  // the same hash).
  TraceOptions hi = a;
  hi.head_sample_rate = 0.8;
  TraceSink s3(hi);
  for (RequestId id = 1; id <= 2000; ++id) {
    if (s1.head_sampled(id)) {
      EXPECT_TRUE(s3.head_sampled(id));
    }
  }
}

TEST(TraceSinkTest, RateZeroAndOneAreExact) {
  TraceOptions none, all;
  none.head_sample_rate = 0.0;
  all.head_sample_rate = 1.0;
  TraceSink s_none(none), s_all(all);
  for (RequestId id = 1; id <= 500; ++id) {
    EXPECT_FALSE(s_none.head_sampled(id));
    EXPECT_TRUE(s_all.head_sampled(id));
  }
}

TEST(TraceSinkTest, RingEvictsOldestBeyondCapacity) {
  TraceOptions opts;
  opts.capacity = 4;
  TraceSink sink(opts);
  for (RequestId id = 1; id <= 10; ++id) {
    const TimePoint begin{static_cast<std::int64_t>(id)};
    ASSERT_TRUE(sink.begin_request(id, begin));
    sink.end_request(id, begin + Duration::ns(5), Duration::ns(5));
  }
  EXPECT_EQ(sink.kept_count(), 4u);
  EXPECT_EQ(sink.stats().traces_evicted, 6u);
  const TraceReport report = sink.report();
  ASSERT_EQ(report.traces.size(), 4u);
  EXPECT_EQ(report.traces.front().id(), 7u);  // 1..6 evicted
  EXPECT_EQ(report.traces.back().id(), 10u);
}

TEST(TraceSinkTest, TailSamplingKeepsOnlySloViolators) {
  TraceOptions opts;
  opts.head_sample_rate = 0.0;  // nothing head-sampled
  opts.keep_slo_violators = true;
  TraceSink sink(opts);
  sink.set_slo_threshold(Duration::ns(100));
  for (RequestId id = 1; id <= 20; ++id) {
    ASSERT_TRUE(sink.begin_request(id, TimePoint::origin()));
    // Odd ids violate (latency 150 > 100), even ids do not.
    sink.end_request(id, TimePoint{200},
                     Duration::ns(id % 2 == 1 ? 150 : 50));
  }
  EXPECT_EQ(sink.kept_count(), 10u);
  EXPECT_EQ(sink.stats().slo_violators_kept, 10u);
  EXPECT_EQ(sink.stats().requests_discarded, 10u);
  for (const RequestTrace& t : sink.report().traces) {
    EXPECT_TRUE(t.slo_violation);
    EXPECT_FALSE(t.head_sampled);
    EXPECT_EQ(t.id() % 2, 1u);
  }
}

TEST(TraceSinkTest, HeadOnlySamplingRefusesUnsampledRequests) {
  // Without tail sampling, the sink alone decides: a request that is not
  // head sampled is refused at begin_request, counted nowhere, and its
  // spans and completion are ignored.
  TraceOptions none;
  none.head_sample_rate = 0.0;
  none.keep_slo_violators = false;
  TraceSink sink(none);
  sink.set_slo_threshold(Duration::ns(100));
  EXPECT_FALSE(sink.begin_request(1, TimePoint::origin()));
  sink.add_span(span(1, SpanKind::kExec, 0, 0, 10));
  sink.end_request(1, TimePoint{200}, Duration::ns(200));
  EXPECT_EQ(sink.pending_count(), 0u);
  EXPECT_EQ(sink.kept_count(), 0u);
  EXPECT_EQ(sink.stats().requests_recorded, 0u);
  EXPECT_EQ(sink.stats().spans_recorded, 0u);
  EXPECT_EQ(sink.stats().requests_discarded, 0u);
  EXPECT_EQ(sink.stats().pending_overflow, 0u);

  TraceOptions all = none;
  all.head_sample_rate = 1.0;
  TraceSink admitted(all);
  EXPECT_TRUE(admitted.begin_request(1, TimePoint::origin()));
  EXPECT_EQ(admitted.stats().requests_recorded, 1u);
  EXPECT_EQ(admitted.pending_count(), 1u);

  // At a fractional rate the verdict is exactly the head-sampling hash.
  TraceOptions part = none;
  part.head_sample_rate = 0.3;
  TraceSink partial(part);
  for (RequestId id = 1; id <= 200; ++id) {
    EXPECT_EQ(partial.begin_request(id, TimePoint::origin()),
              partial.head_sampled(id));
  }
}

TEST(TraceSinkTest, SpansForUnknownRequestsAreIgnored) {
  TraceSink sink(TraceOptions{});
  sink.add_span(span(42, SpanKind::kExec, 0, 0, 10));
  EXPECT_EQ(sink.stats().spans_recorded, 0u);
  ASSERT_TRUE(sink.begin_request(1, TimePoint::origin()));
  sink.add_span(span(1, SpanKind::kExec, 0, 0, 10));
  EXPECT_EQ(sink.stats().spans_recorded, 1u);
}

TEST(TraceSinkTest, AbandonDropsPendingBuffer) {
  TraceSink sink(TraceOptions{});
  ASSERT_TRUE(sink.begin_request(1, TimePoint::origin()));
  sink.add_span(span(1, SpanKind::kExec, 0, 0, 10));
  sink.abandon_request(1);
  EXPECT_EQ(sink.pending_count(), 0u);
  EXPECT_EQ(sink.kept_count(), 0u);
  EXPECT_EQ(sink.stats().requests_abandoned, 1u);
}

TEST(TraceSinkTest, RecycledBuffersCarryNoStaleSpans) {
  // Nothing is head-sampled; a request is kept only when it breaks the
  // 100 ns SLO. With capacity 2, the third and fourth kept requests evict
  // the first two and record into their recycled buffers.
  TraceOptions opts;
  opts.capacity = 2;
  opts.head_sample_rate = 0.0;
  opts.keep_slo_violators = true;
  TraceSink sink(opts);
  sink.set_slo_threshold(Duration::ns(100));
  enum Outcome { kKept, kSampledOut, kAbandoned };
  struct Request {
    int spans;
    Outcome outcome;
  };
  const Request requests[] = {{3, kKept},       {1, kKept}, {4, kSampledOut},
                              {1, kAbandoned},  {5, kKept}, {2, kKept}};
  std::int64_t t = 0;
  RequestId id = 0;
  for (const Request& r : requests) {
    ++id;
    ASSERT_TRUE(sink.begin_request(id, TimePoint{t}));
    for (int k = 0; k < r.spans; ++k) {
      sink.add_span(span(id, SpanKind::kExec, static_cast<int>(id), t, t + 10));
      t += 10;
    }
    if (r.outcome == kAbandoned) {
      sink.abandon_request(id);
    } else {
      sink.end_request(id, TimePoint{t},
                       Duration::ns(r.outcome == kKept ? 150 : 50));
    }
  }
  EXPECT_EQ(sink.stats().requests_kept, 4u);
  EXPECT_EQ(sink.stats().requests_discarded, 1u);
  EXPECT_EQ(sink.stats().requests_abandoned, 1u);
  EXPECT_EQ(sink.stats().traces_evicted, 2u);
  EXPECT_EQ(sink.pending_count(), 0u);

  const TraceReport report = sink.report();
  ASSERT_EQ(report.traces.size(), 2u);
  EXPECT_EQ(report.traces[0].id(), 5u);
  EXPECT_EQ(report.traces[1].id(), 6u);
  EXPECT_EQ(report.traces[0].spans.size(), 5u);
  EXPECT_EQ(report.traces[1].spans.size(), 2u);
  for (const RequestTrace& tr : report.traces) {
    for (const TraceSpan& s : tr.spans) {
      EXPECT_EQ(s.request_id, tr.id());
      EXPECT_EQ(s.container, static_cast<int>(tr.id()));
      EXPECT_GE(s.begin, tr.begin);
      EXPECT_LE(s.end, tr.end);
    }
  }
}

TEST(TraceSinkDeathTest, SpanBeginningBeforeTheOriginAborts) {
  TraceSink sink(TraceOptions{});
  EXPECT_DEATH(sink.add_span(span(1, SpanKind::kExec, 0, -1, 10)),
               "before the origin");
}

TEST(TraceSinkDeathTest, SpanEndingBeforeItBeginsAborts) {
  TraceSink sink(TraceOptions{});
  EXPECT_DEATH(sink.add_span(span(1, SpanKind::kExec, 0, 10, 9)),
               "ends before it begins");
}

TEST(TraceSinkTest, PendingOverflowRefusesNewRequests) {
  TraceOptions opts;
  opts.max_pending = 2;
  TraceSink sink(opts);
  EXPECT_TRUE(sink.begin_request(1, TimePoint::origin()));
  EXPECT_TRUE(sink.begin_request(2, TimePoint::origin()));
  EXPECT_FALSE(sink.begin_request(3, TimePoint::origin()));
  EXPECT_EQ(sink.stats().pending_overflow, 1u);
  sink.end_request(1, TimePoint{10}, Duration::ns(10));
  EXPECT_TRUE(sink.begin_request(4, TimePoint{10}));
}

auto stat_fields(const TraceStats& s) {
  return std::make_tuple(s.requests_recorded, s.requests_kept,
                         s.requests_discarded, s.requests_abandoned,
                         s.pending_overflow, s.traces_evicted,
                         s.spans_recorded, s.slo_violators_kept,
                         s.decisions_recorded, s.decisions_dropped);
}

std::uint64_t bits_of(double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

double double_of(std::uint64_t bits) {
  double d = 0.0;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

// Every field, doubles by bit pattern (NaN != NaN, and -0.0 == 0.0).
auto exact_fields(const TraceSpan& s) {
  return std::make_tuple(s.request_id, s.kind, s.container, s.src_container,
                         s.begin, s.end, s.is_response,
                         bits_of(s.cpu_served_ns), bits_of(s.boost_active_ns));
}

TEST(TraceSinkTest, MatchesAReferenceModel) {
  // Fixed-seed random begin/add_span/end/abandon calls, checked against a
  // model built from std::map (in flight) and a list trimmed to `capacity`
  // (kept). capacity 3 and max_pending 8 make eviction and refusal common.
  TraceOptions opts;
  opts.capacity = 3;
  opts.max_pending = 8;
  opts.head_sample_rate = 0.5;
  opts.keep_slo_violators = true;
  TraceSink sink(opts);
  const Duration slo = Duration::ns(100);
  sink.set_slo_threshold(slo);

  // Request ids are dense (RequestWindow's contract): 17 ids from 0, begun
  // and retired in random order, so the in-flight window grows at both
  // ends.
  std::vector<RequestId> ids;
  for (RequestId id = 0; id < 17; ++id) ids.push_back(id);

  // The model keeps decoded spans: it does not share the sink's codec.
  struct Model {
    RequestId id = 0;
    TimePoint begin;
    TimePoint end;
    Duration latency;
    bool head_sampled = false;
    bool slo_violation = false;
    std::vector<TraceSpan> spans;
  };
  std::map<RequestId, Model> pending;
  std::deque<Model> kept;
  TraceStats stats;
  std::mt19937_64 rng(29);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  // Mostly an in-flight id, sometimes any id (possibly unknown).
  const auto pick_id = [&](int pending_percent) {
    if (!pending.empty() && static_cast<int>(pick(100)) < pending_percent) {
      auto it = pending.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(pick(pending.size())));
      return it->first;
    }
    return ids[pick(ids.size())];
  };

  std::int64_t t = 0;
  for (int step = 0; step < 20000; ++step) {
    ++t;
    const std::size_t op = pick(100);
    if (op < 35) {
      // begin; a quarter of them repeat an in-flight id.
      const RequestId id = pick_id(25);
      const bool admitted = pending.size() < opts.max_pending;
      ASSERT_EQ(sink.begin_request(id, TimePoint{t}), admitted)
          << "step " << step;
      if (admitted) {
        Model& m = pending[id];  // a repeat keeps its spans
        m.id = id;
        m.begin = TimePoint{t};
        m.head_sampled = sink.head_sampled(id);
        ++stats.requests_recorded;
      } else {
        ++stats.pending_overflow;
      }
    } else if (op < 70) {
      TraceSpan s = span(pick_id(90), static_cast<SpanKind>(pick(4)),
                         static_cast<int>(pick(12)), t,
                         t + static_cast<std::int64_t>(pick(50)));
      s.src_container = static_cast<int>(pick(12)) - 1;
      s.is_response = pick(2) == 1;
      s.cpu_served_ns = static_cast<double>(pick(1000)) / 4;
      s.boost_active_ns = static_cast<double>(pick(1000)) / 8;
      sink.add_span(s);
      const auto it = pending.find(s.request_id);
      if (it != pending.end()) {
        it->second.spans.push_back(s);
        ++stats.spans_recorded;
      }
    } else if (op < 92) {
      const RequestId id = pick_id(70);
      const Duration latency{static_cast<std::int64_t>(pick(200))};
      sink.end_request(id, TimePoint{t}, latency);
      const auto it = pending.find(id);
      if (it != pending.end()) {
        Model m = std::move(it->second);
        pending.erase(it);
        m.end = TimePoint{t};
        m.latency = latency;
        m.slo_violation = latency > slo;
        if (m.head_sampled || m.slo_violation) {
          ++stats.requests_kept;
          if (m.slo_violation) ++stats.slo_violators_kept;
          kept.push_back(std::move(m));
          if (kept.size() > opts.capacity) {
            kept.pop_front();
            ++stats.traces_evicted;
          }
        } else {
          ++stats.requests_discarded;
        }
      }
    } else {
      const RequestId id = pick_id(70);
      sink.abandon_request(id);
      if (pending.erase(id) == 1) ++stats.requests_abandoned;
    }
    ASSERT_EQ(sink.pending_count(), pending.size()) << "step " << step;
    ASSERT_EQ(sink.kept_count(), kept.size()) << "step " << step;
    ASSERT_EQ(stat_fields(sink.stats()), stat_fields(stats)) << "step " << step;
  }
  // Every path ran many times.
  EXPECT_GT(stats.pending_overflow, 100u);
  EXPECT_GT(stats.traces_evicted, 100u);
  EXPECT_GT(stats.requests_discarded, 100u);
  EXPECT_GT(stats.requests_abandoned, 100u);
  EXPECT_GT(stats.slo_violators_kept, 100u);

  const TraceReport report = sink.report();
  ASSERT_EQ(report.traces.size(), kept.size());
  for (std::size_t i = 0; i < kept.size(); ++i) {
    const RequestTrace& got = report.traces[i];
    Model& want = kept[i];
    EXPECT_EQ(got.id(), want.id) << i;
    EXPECT_EQ(got.begin, want.begin) << i;
    EXPECT_EQ(got.end, want.end) << i;
    EXPECT_EQ(got.latency, want.latency) << i;
    EXPECT_EQ(got.head_sampled, want.head_sampled) << i;
    EXPECT_EQ(got.slo_violation, want.slo_violation) << i;
    // Span begins are distinct, so begin order is the report's content
    // order.
    std::sort(want.spans.begin(), want.spans.end(),
              [](const TraceSpan& a, const TraceSpan& b) {
                return a.begin < b.begin;
              });
    ASSERT_EQ(got.spans.size(), want.spans.size()) << i;
    std::size_t k = 0;
    for (const TraceSpan& s : got.spans) {
      EXPECT_EQ(exact_fields(s), exact_fields(want.spans[k])) << i << "/" << k;
      ++k;
    }
  }
}

TEST(SpanListTest, EmptyListDecodesNothing) {
  const SpanList list(3);
  EXPECT_EQ(list.request_id(), 3u);
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.size(), 0u);
  EXPECT_EQ(list.bytes(), 0u);
  EXPECT_TRUE(list.begin() == list.end());
}

TEST(SpanListTest, RoundTripsEveryFieldExactly) {
  // Fixed-seed random spans in lists of 1-64, one list reset and reused
  // for each request. Begins jump back and forth over [0, 2^62], and every
  // field mixes edge values with random ones; the edges include both sides
  // of each narrow field's range (int8 containers, int32 begin deltas,
  // uint32 walls).
  std::mt19937_64 rng(35);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const int edge_ints[] = {-1,  0,    1,    63,  64,  -65,     127,
                           128, -128, -129, 255, 256, INT_MIN, INT_MAX};
  const auto any_int = [&] {
    return pick(2) == 0 ? edge_ints[pick(std::size(edge_ints))]
                        : static_cast<int>(static_cast<std::uint32_t>(rng()));
  };
  const double edge_doubles[] = {
      0.0,
      -0.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      double_of(0x7ff8'0000'dead'beefull),  // quiet NaN with a payload
      double_of(0xfff0'0000'0000'0001ull),  // negative signalling NaN
      std::numeric_limits<double>::denorm_min(),
      -1e-310,  // denormal
      0.25,
      1234.5678,
      -3.75e7,
      1e300};
  const auto any_double = [&] {
    return pick(2) == 0 ? edge_doubles[pick(std::size(edge_doubles))]
                        : static_cast<double>(pick(1u << 20)) / 7.0;
  };
  constexpr std::int64_t kMaxBegin = std::int64_t{1} << 62;
  constexpr std::int64_t k2to31 = std::int64_t{1} << 31;
  const std::int64_t edge_begins[] = {0,      1,         k2to31 - 1,
                                      k2to31, kMaxBegin - 1, kMaxBegin};
  const auto any_begin = [&] {
    switch (pick(3)) {
      case 0: return edge_begins[pick(std::size(edge_begins))];
      case 1: return static_cast<std::int64_t>(pick(1u << 30));
      default: return static_cast<std::int64_t>(rng() >> 2);  // < 2^62
    }
  };
  constexpr std::int64_t k2to40 = std::int64_t{1} << 40;
  constexpr std::int64_t k2to32 = std::int64_t{1} << 32;
  const std::int64_t edge_walls[] = {0,      1,          127,
                                     128,    k2to32 - 1, k2to32,
                                     k2to40, k2to40 + 12345,
                                     std::int64_t{1} << 61};
  const auto any_wall = [&] {
    return pick(2) == 0 ? edge_walls[pick(std::size(edge_walls))]
                        : static_cast<std::int64_t>(pick(1u << 24));
  };
  const RequestId edge_ids[] = {0, 1, 7, ~RequestId{0}};

  SpanList list;
  SpanList assigned;
  std::vector<TraceSpan> want;
  std::size_t total = 0;
  std::size_t lists = 0;
  bool saw_descending_begin = false;
  while (total < 100000) {
    const RequestId id = pick(4) == 0 ? edge_ids[pick(std::size(edge_ids))]
                                      : static_cast<RequestId>(rng());
    list.reset(id);
    ASSERT_EQ(list.request_id(), id);
    ASSERT_TRUE(list.empty());
    ASSERT_EQ(list.bytes(), 0u);
    want.clear();
    const std::size_t n = 1 + pick(64);
    for (std::size_t k = 0; k < n; ++k) {
      TraceSpan s;
      s.request_id = id;
      s.kind = static_cast<SpanKind>(pick(4));
      s.container = any_int();
      s.src_container = any_int();
      s.begin = TimePoint{any_begin()};
      s.end = s.begin + Duration{any_wall()};
      s.is_response = pick(2) == 1;
      s.cpu_served_ns = any_double();
      s.boost_active_ns = any_double();
      if (!want.empty() && s.begin < want.back().begin) {
        saw_descending_begin = true;
      }
      list.push_back(s);
      want.push_back(s);
      ASSERT_EQ(list.size(), want.size());
    }
    std::size_t k = 0;
    for (const TraceSpan& got : list) {
      ASSERT_LT(k, want.size());
      ASSERT_EQ(exact_fields(got), exact_fields(want[k]))
          << "list " << lists << ", span " << k;
      ++k;
    }
    ASSERT_EQ(k, want.size());
    // Copies (the ring assigns one into a slot that held another trace)
    // and moves decode the same spans; a moved-from list is empty.
    const auto same = [&](const SpanList& l) {
      return l.request_id() == id && l.size() == want.size() &&
             std::equal(l.begin(), l.end(), want.begin(), want.end(),
                        [](const TraceSpan& a, const TraceSpan& b) {
                          return exact_fields(a) == exact_fields(b);
                        });
    };
    SpanList copy = list;
    ASSERT_TRUE(same(copy));
    ASSERT_EQ(copy.bytes(), list.bytes());
    assigned = list;
    ASSERT_TRUE(same(assigned));
    const SpanList moved = std::move(copy);
    ASSERT_TRUE(same(moved));
    ASSERT_TRUE(copy.empty());
    ASSERT_TRUE(copy.begin() == copy.end());
    total += n;
    ++lists;
  }
  EXPECT_TRUE(saw_descending_begin);
}

TEST(TraceSinkTest, DecisionCapCountsDrops) {
  TraceOptions opts;
  opts.max_decisions = 3;
  TraceSink sink(opts);
  for (int i = 0; i < 5; ++i) {
    sink.add_decision({TimePoint{i}, DecisionKind::kCoreGrant,
                       "escalator", 0, 1, 2});
  }
  EXPECT_EQ(sink.stats().decisions_recorded, 3u);
  EXPECT_EQ(sink.stats().decisions_dropped, 2u);
  EXPECT_EQ(sink.report().decisions.size(), 3u);
}

// Hand-built report: client -> svc0 -> reply, with exec + conn-wait +
// hops, plus one decision event.
TraceReport tiny_report() {
  TraceOptions opts;
  TraceSink sink(opts);
  sink.set_slo_threshold(Duration::ns(1000));
  EXPECT_TRUE(sink.begin_request(7, TimePoint::origin()));
  sink.add_span(span(7, SpanKind::kNetHop, 0, 0, 100));        // client -> 0
  sink.add_span(span(7, SpanKind::kExec, 0, 100, 400));        // exec
  sink.add_span(span(7, SpanKind::kConnWait, 0, 400, 450));    // pool wait
  auto visit = span(7, SpanKind::kVisit, 0, 100, 500);
  visit.boost_active_ns = 200.0;
  sink.add_span(visit);
  auto back = span(7, SpanKind::kNetHop, -1, 500, 600);        // 0 -> client
  back.src_container = 0;
  back.is_response = true;
  sink.add_span(back);
  sink.end_request(7, TimePoint{600}, Duration::ns(600));
  sink.add_decision({TimePoint{250}, DecisionKind::kFreqBoost,
                     "first-responder", 0, 0,
                     3200});
  sink.set_container_info({{0, 0, "app/frontend"}});
  return sink.report();
}

TEST(ChromeTraceTest, EmitsStructurallyValidJson) {
  const std::string json = chrome_trace_json(tiny_report());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("app/frontend"), std::string::npos);
  EXPECT_NE(json.find("first-responder"), std::string::npos);

  // Structural sanity without a JSON library: braces/brackets balance and
  // quotes pair up (the exporter escapes embedded quotes).
  int braces = 0, brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(ChromeTraceTest, DeterministicForSameReport) {
  EXPECT_EQ(chrome_trace_json(tiny_report()), chrome_trace_json(tiny_report()));
}

// The exporter's number formats, written the way printf writes them.
std::string printf_us(std::int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  return buf;
}

std::string printf_fixed3(double ns) {
  char buf[400];
  std::snprintf(buf, sizeof(buf), "%.3f", ns / 1e3);
  return buf;
}

// One request of hand-built spans; `containers` names the tracks.
TraceReport report_of(const std::vector<TraceSpan>& spans,
                      std::vector<TraceContainerInfo> containers = {}) {
  TraceReport report;
  RequestTrace trace;
  trace.spans.reset(7);
  for (const TraceSpan& s : spans) trace.spans.push_back(s);
  report.traces.push_back(std::move(trace));
  report.containers = std::move(containers);
  return report;
}

bool contains(const std::string& json, const std::string& part) {
  return json.find(part) != std::string::npos;
}

TEST(ChromeTraceTest, ExactMicrosecondsMatchPrintf) {
  const std::int64_t large = 9'000'000'000'000'123'456;
  const std::int64_t values[] = {0, 999, 1000, 123'456'789, large};
  std::vector<TraceSpan> spans;
  for (const std::int64_t v : values) {
    // ts = v, dur = 999 (v itself would overflow at the large timestamp).
    spans.push_back(span(7, SpanKind::kConnWait, 0, v, v + 999));
    // ts = 0, dur = v.
    spans.push_back(span(7, SpanKind::kConnWait, 0, 0, v));
  }
  const std::string json = chrome_trace_json(report_of(spans));
  for (const std::int64_t v : values) {
    EXPECT_TRUE(contains(json, "\"ts\":" + printf_us(v) + ",\"dur\":0.999,"))
        << v;
    EXPECT_TRUE(contains(json, "\"ts\":0.000,\"dur\":" + printf_us(v) + ","))
        << v;
  }
  EXPECT_TRUE(contains(json, "\"ts\":9000000000000123.456,"));
}

TEST(ChromeTraceTest, FixedThreeDecimalsMatchPrintf) {
  const double values_us[] = {0.0,  -0.0, 0.0005, 0.0015, -0.0004,
                              1e12, 1e300};
  std::vector<TraceSpan> spans;
  std::vector<double> ns;
  for (const double v : values_us) ns.push_back(v * 1e3);
  // The most negative double, whose "%.3f" is the longest the exporter
  // writes (311 chars).
  ns.push_back(std::numeric_limits<double>::lowest());
  for (const double v : ns) {
    auto exec = span(7, SpanKind::kExec, 0, 0, 1000);
    exec.cpu_served_ns = v;
    spans.push_back(exec);
    auto visit = span(7, SpanKind::kVisit, 0, 0, 1000);
    visit.boost_active_ns = v;
    spans.push_back(visit);
  }
  const std::string json = chrome_trace_json(report_of(spans));
  for (const double v : ns) {
    EXPECT_TRUE(contains(json, "\"cpu_served_us\":" + printf_fixed3(v) +
                                   ",\"cpu_queue_us\":" +
                                   printf_fixed3(1000.0 - v) + "}}"))
        << printf_fixed3(v);
    EXPECT_TRUE(
        contains(json, "\"boost_active_us\":" + printf_fixed3(v) + "}}"))
        << printf_fixed3(v);
  }
  EXPECT_TRUE(contains(json, "\"cpu_served_us\":-0.000,"));
  EXPECT_TRUE(contains(json, "\"boost_active_us\":1000000000000.000}}"));
}

TEST(ChromeTraceTest, NamesAreEscapedAndUnnamedContainersFallBack) {
  auto named_hop = span(7, SpanKind::kNetHop, 5, 0, 10);
  named_hop.src_container = 0;
  auto unnamed_hop = span(7, SpanKind::kNetHop, 0, 0, 10);
  unnamed_hop.src_container = 9;
  const std::string json = chrome_trace_json(
      report_of({span(7, SpanKind::kVisit, 0, 0, 10),
                 span(7, SpanKind::kVisit, 5, 0, 10), named_hop, unnamed_hop},
                {{0, 0, "a\"b\\c\x01" "d\n\t"}}));
  const std::string escaped = "a\\\"b\\\\c\\u0001d\\n\\t";
  EXPECT_TRUE(contains(json, "{\"name\":\"" + escaped +
                                 "\",\"ph\":\"X\",\"pid\":0,\"tid\":2,"));
  EXPECT_TRUE(contains(json, "\"pid\":2,\"tid\":2,\"args\":{\"name\":\"" +
                                 escaped + "\"}}"));
  EXPECT_TRUE(contains(json, "\"src\":\"" + escaped + "\"}}"));
  // Container 5 and 9 have no name.
  EXPECT_TRUE(
      contains(json, "{\"name\":\"c5\",\"ph\":\"X\",\"pid\":0,\"tid\":7,"));
  EXPECT_TRUE(contains(json, "\"src\":\"c9\"}}"));
}

TEST(BreakdownTest, FractionsComputedFromSpans) {
  const auto rows = latency_breakdown(tiny_report());
  ASSERT_EQ(rows.size(), 1u);
  const BreakdownRow& r = rows[0];
  EXPECT_EQ(r.service, "app/frontend");
  EXPECT_EQ(r.visits, 1u);
  EXPECT_DOUBLE_EQ(r.avg_visit_us, 0.4);          // 400 ns visit
  EXPECT_DOUBLE_EQ(r.conn_wait_frac, 50.0 / 400.0);
  EXPECT_DOUBLE_EQ(r.boost_frac, 200.0 / 400.0);
  EXPECT_DOUBLE_EQ(r.avg_net_in_us, 0.1);         // 100 ns inbound hop
}

TEST(CriticalPathTest, GreedyCoverAccountsGaps) {
  TraceSink sink(TraceOptions{});
  ASSERT_TRUE(sink.begin_request(1, TimePoint::origin()));
  sink.add_span(span(1, SpanKind::kNetHop, 0, 0, 100));
  auto e = span(1, SpanKind::kExec, 0, 100, 300);
  e.cpu_served_ns = 150.0;  // 50 ns cpu-queue inside the exec segment
  sink.add_span(e);
  // Uncovered [300, 400): a structural gap.
  sink.add_span(span(1, SpanKind::kNetHop, -1, 400, 500));
  sink.end_request(1, TimePoint{500}, Duration::ns(500));
  const auto paths = critical_paths(sink.report(), 1);
  ASSERT_EQ(paths.size(), 1u);
  const CriticalPath& p = paths[0];
  EXPECT_EQ(p.latency, Duration::ns(500));
  EXPECT_EQ(p.net_ns, Duration::ns(200));
  EXPECT_EQ(p.exec_ns, Duration::ns(150));
  EXPECT_EQ(p.queue_ns, Duration::ns(50));
  EXPECT_EQ(p.gap_ns, Duration::ns(100));
  EXPECT_EQ(p.exec_ns + p.queue_ns + p.net_ns + p.gap_ns, p.latency);
}

TEST(CriticalPathTest, SlowestRequestsFirst) {
  TraceSink sink(TraceOptions{});
  for (RequestId id = 1; id <= 3; ++id) {
    ASSERT_TRUE(sink.begin_request(id, TimePoint::origin()));
    const auto latency = static_cast<std::int64_t>(100 * id);
    sink.add_span(span(id, SpanKind::kNetHop, 0, 0, latency));
    sink.end_request(id, TimePoint{latency}, Duration{latency});
  }
  const auto paths = critical_paths(sink.report(), 2);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0].id, 3u);
  EXPECT_EQ(paths[1].id, 2u);
}

TEST(TraceEnumsTest, ToStringCoversAllValues) {
  EXPECT_STREQ(to_string(SpanKind::kVisit), "visit");
  EXPECT_STREQ(to_string(SpanKind::kExec), "exec");
  EXPECT_STREQ(to_string(SpanKind::kConnWait), "conn-wait");
  EXPECT_STREQ(to_string(SpanKind::kNetHop), "net-hop");
  EXPECT_STREQ(to_string(DecisionKind::kCoreGrant), "core-grant");
  EXPECT_STREQ(to_string(DecisionKind::kCoreRevoke), "core-revoke");
  EXPECT_STREQ(to_string(DecisionKind::kFreqBoost), "freq-boost");
  EXPECT_STREQ(to_string(DecisionKind::kFreqLower), "freq-lower");
  EXPECT_STREQ(to_string(DecisionKind::kUpscaleStamp), "upscale-stamp");
  EXPECT_STREQ(to_string(DecisionKind::kAllocSet), "alloc-set");
}

}  // namespace
}  // namespace sg
