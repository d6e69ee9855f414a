// End-to-end request flow through the application model.
#include "app/application.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "fault/fault_injector.hpp"
#include "trace/trace.hpp"
#include "workload/load_generator.hpp"

namespace sg {
namespace {

struct MiniTestbed {
  Simulator sim{7};
  Cluster cluster{sim};
  Network network;
  MetricsPlane metrics{1};
  std::unique_ptr<Application> app;

  explicit MiniTestbed(AppSpec spec, int cores_per_service = 4,
                       NetworkLatencyModel model = {},
                       RpcRetryPolicy retry = {})
      : network(sim, model) {
    cluster.add_node(64, 19);
    Deployment dep = Deployment::single_node(spec, 0, cores_per_service);
    app = std::make_unique<Application>(cluster, network, metrics,
                                        std::move(spec), dep, retry);
  }

  /// Sends one client request; returns (completed, latency).
  std::pair<bool, Duration> run_one_request() {
    bool done = false;
    Duration latency;
    network.register_client_receiver([&](const RpcPacket& p) {
      done = true;
      latency = sim.now() - p.start_time;
    });
    RpcPacket pkt;
    pkt.request_id = 1;
    pkt.dst_container = app->entry_container();
    pkt.dst_node = app->entry_node();
    pkt.start_time = sim.now();
    network.send(kClientNode, pkt);
    sim.run_to_completion();
    return {done, latency};
  }
};

AppSpec chain_spec(int n, double work = 10'000.0) {
  AppSpec spec;
  spec.name = "chain";
  for (int i = 0; i < n; ++i) {
    ServiceSpec s;
    s.name = "s" + std::to_string(i);
    s.work_ns_mean = work;
    s.work_sigma = 0.0;  // deterministic for exact assertions
    if (i + 1 < n) s.children = {i + 1};
    spec.services.push_back(s);
  }
  return spec;
}

TEST(ApplicationTest, SingleRequestTraversesChain) {
  MiniTestbed tb(chain_spec(3));
  auto [done, latency] = tb.run_one_request();
  EXPECT_TRUE(done);
  EXPECT_GT(latency, Duration{30'000});  // at least the CPU work
  EXPECT_EQ(tb.app->requests_completed(), 1u);
  EXPECT_EQ(tb.app->in_flight(), 0);
}

TEST(ApplicationTest, LatencyAccountsWorkAndHops) {
  NetworkLatencyModel model;
  model.jitter = 0.0;
  MiniTestbed tb(chain_spec(3), 4, model);
  auto [done, latency] = tb.run_one_request();
  ASSERT_TRUE(done);
  // 3 services x 10us work; hops: client->s0, s0->s1, s1->s2 and the three
  // responses = 6 x same_node... client hops are cross-node (client is
  // remote): 2 cross + 4 same.
  const Duration expected = Duration{3 * 10'000} + 2 * model.cross_node +
                            4 * model.same_node;
  EXPECT_EQ(latency, expected);
}

TEST(ApplicationTest, ParallelFanoutOverlapsChildren) {
  AppSpec par;
  par.name = "par";
  ServiceSpec root, s1, s2;
  root.name = "root";
  root.work_ns_mean = 0;
  root.work_sigma = 0;
  root.children = {1, 2};
  root.fanout = FanoutMode::kParallel;
  s1.name = "s1";
  s1.work_ns_mean = 500'000;
  s1.work_sigma = 0;
  s2.name = "s2";
  s2.work_ns_mean = 500'000;
  s2.work_sigma = 0;
  par.services = {root, s1, s2};

  AppSpec seq = par;
  seq.services[0].fanout = FanoutMode::kSequential;

  NetworkLatencyModel model;
  model.jitter = 0.0;
  MiniTestbed tb_par(par, 4, model);
  MiniTestbed tb_seq(seq, 4, model);
  auto [dp, lat_par] = tb_par.run_one_request();
  auto [ds, lat_seq] = tb_seq.run_one_request();
  ASSERT_TRUE(dp && ds);
  // Parallel: children overlap (distinct containers) -> ~one child latency.
  // Sequential: both children serialize.
  EXPECT_LT(lat_par, lat_seq);
  EXPECT_GT(lat_seq, Duration{1'000'000});
  EXPECT_LT(lat_par, Duration{1'000'000});
}

TEST(ApplicationTest, PoolHandoffWaitIsTheHoldersRoundTrip) {
  // Two requests reach s0 together and finish their own work at the same
  // instant; the pool to s1 has one connection. The second visit waits for
  // the first call's whole round trip and is handed the connection when its
  // response arrives, so its conn-wait is that round trip to the nanosecond.
  AppSpec spec = chain_spec(2);
  spec.pool_sizes = {{1}, {}};
  NetworkLatencyModel model;
  model.jitter = 0.0;
  MiniTestbed tb(spec, 4, model);
  TraceSink& trace = tb.sim.enable_tracing(TraceOptions{});
  int replies = 0;
  tb.network.register_client_receiver([&](const RpcPacket& p) {
    ++replies;
    trace.end_request(p.request_id, tb.sim.now(), tb.sim.now() - p.start_time);
  });
  for (RequestId id : {RequestId{1}, RequestId{2}}) {
    ASSERT_TRUE(trace.begin_request(id, tb.sim.now()));
    RpcPacket pkt;
    pkt.request_id = id;
    pkt.dst_container = tb.app->entry_container();
    pkt.dst_node = tb.app->entry_node();
    pkt.start_time = tb.sim.now();
    tb.network.send(kClientNode, pkt);
  }
  // One round trip of the s0 -> s1 call: two same-node hops and s1's work.
  const Duration round_trip = 2 * model.same_node + Duration{10'000};
  const TimePoint own_work_done = TimePoint::origin() + model.cross_node +
                                  Duration{10'000};
  ContainerRuntimeMetrics& m0 = const_cast<ContainerRuntimeMetrics&>(
      tb.app->runtime_metrics(tb.app->service_container(0).id()));

  // The first visit replies when its call returns; it never waited.
  tb.sim.run_until(own_work_done + round_trip);
  const MetricsSnapshot first = m0.flush(tb.sim.now());
  EXPECT_EQ(first.visits, 1);
  EXPECT_EQ(first.avg_conn_wait_ns, 0.0);
  tb.sim.run_to_completion();
  ASSERT_EQ(replies, 2);
  const MetricsSnapshot second = m0.flush(tb.sim.now());
  EXPECT_EQ(second.visits, 1);
  EXPECT_EQ(second.avg_conn_wait_ns, static_cast<double>(round_trip.ns()));

  const int c0 = tb.app->service_container(0).id();
  auto spans_of = [&](const RequestTrace& t, SpanKind kind) {
    std::vector<TraceSpan> out;
    for (const TraceSpan& sp : t.spans) {
      if (sp.kind == kind && sp.container == c0) out.push_back(sp);
    }
    return out;
  };
  const TraceReport report = trace.report();
  ASSERT_EQ(report.traces.size(), 2u);
  const RequestTrace& holder = report.traces[0];
  const RequestTrace& waiter = report.traces[1];
  EXPECT_EQ(holder.id(), 1u);
  EXPECT_EQ(waiter.id(), 2u);
  EXPECT_TRUE(spans_of(holder, SpanKind::kConnWait).empty());
  const std::vector<TraceSpan> wait = spans_of(waiter, SpanKind::kConnWait);
  ASSERT_EQ(wait.size(), 1u);
  EXPECT_EQ(wait[0].begin, own_work_done);
  EXPECT_EQ(wait[0].wall(), round_trip);
  // The wait spans the holder's call: from the end of its own work to its
  // reply at s0, which is when the connection came back.
  const std::vector<TraceSpan> exec = spans_of(holder, SpanKind::kExec);
  const std::vector<TraceSpan> visit = spans_of(holder, SpanKind::kVisit);
  ASSERT_EQ(exec.size(), 1u);
  ASSERT_EQ(visit.size(), 1u);
  EXPECT_EQ(wait[0].begin, exec[0].end);
  EXPECT_EQ(wait[0].end, visit[0].end);
  EXPECT_EQ(holder.latency + round_trip, waiter.latency);
}

TEST(ApplicationTest, SinkAloneDecidesWhichRequestsRecordSpans) {
  // With a sink installed, every layer offers it spans; only a request it
  // has begun records any. Requests 1 and 2 are never begun: they cross the
  // whole task graph, one waiting for the other's connection, and back to
  // the client without a span. Request 3 is begun and records its hops,
  // exec segments and visits.
  AppSpec spec = chain_spec(2);
  spec.pool_sizes = {{1}, {}};
  MiniTestbed tb(spec);
  TraceSink& trace = tb.sim.enable_tracing(TraceOptions{});
  int replies = 0;
  tb.network.register_client_receiver([&](const RpcPacket& p) {
    ++replies;
    trace.end_request(p.request_id, tb.sim.now(), tb.sim.now() - p.start_time);
  });
  auto send = [&](RequestId id) {
    RpcPacket pkt;
    pkt.request_id = id;
    pkt.dst_container = tb.app->entry_container();
    pkt.dst_node = tb.app->entry_node();
    pkt.start_time = tb.sim.now();
    tb.network.send(kClientNode, pkt);
  };
  send(1);
  send(2);
  tb.sim.run_to_completion();
  ASSERT_EQ(replies, 2);
  ContainerRuntimeMetrics& m0 = const_cast<ContainerRuntimeMetrics&>(
      tb.app->runtime_metrics(tb.app->service_container(0).id()));
  EXPECT_GT(m0.flush(tb.sim.now()).avg_conn_wait_ns, 0.0);
  EXPECT_EQ(trace.stats().spans_recorded, 0u);
  EXPECT_EQ(trace.stats().requests_kept, 0u);

  ASSERT_TRUE(trace.begin_request(3, tb.sim.now()));
  send(3);
  tb.sim.run_to_completion();
  ASSERT_EQ(replies, 3);
  const TraceReport report = trace.report();
  ASSERT_EQ(report.traces.size(), 1u);
  const RequestTrace& t = report.traces[0];
  EXPECT_EQ(t.id(), 3u);
  auto count = [&](SpanKind kind) {
    return std::count_if(t.spans.begin(), t.spans.end(),
                         [&](const TraceSpan& sp) { return sp.kind == kind; });
  };
  EXPECT_EQ(count(SpanKind::kNetHop), 4);  // client -> s0 -> s1 -> s0 -> client
  EXPECT_EQ(count(SpanKind::kExec), 2);
  EXPECT_EQ(count(SpanKind::kVisit), 2);
  EXPECT_EQ(count(SpanKind::kConnWait), 0);
  EXPECT_EQ(report.stats.spans_recorded, t.spans.size());
}

TEST(ApplicationTest, VisitRecordsCapturedPerContainer) {
  MiniTestbed tb(chain_spec(2));
  tb.run_one_request();
  const auto& m0 = tb.app->runtime_metrics(tb.app->service_container(0).id());
  const auto& m1 = tb.app->runtime_metrics(tb.app->service_container(1).id());
  EXPECT_EQ(m0.total_visits(), 1u);
  EXPECT_EQ(m1.total_visits(), 1u);
  // Upstream exec time includes downstream latency.
  EXPECT_GT(m0.lifetime_avg_exec_metric_ns(), m1.lifetime_avg_exec_metric_ns());
}

TEST(ApplicationTest, TimeFromStartGrowsDownstream) {
  MiniTestbed tb(chain_spec(3));
  tb.run_one_request();
  double prev = -1.0;
  for (int i = 0; i < 3; ++i) {
    const auto& m = tb.app->runtime_metrics(tb.app->service_container(i).id());
    EXPECT_GT(m.lifetime_avg_time_from_start_ns(), prev);
    prev = m.lifetime_avg_time_from_start_ns();
  }
}

TEST(ApplicationTest, UpscaleStampPropagatesAndDecrements) {
  MiniTestbed tb(chain_spec(4));
  // Stamp at service 1 with depth 2: services 2 and 3 should receive hints
  // (2 at depth 2, 3 at depth 1), service 1 itself receives none.
  tb.app->set_upscale_stamp(tb.app->service_container(1).id(), 2);
  tb.run_one_request();
  auto hint_received = [&](int svc) {
    // Hint state is only visible through the flushed snapshot.
    ContainerRuntimeMetrics& m = const_cast<ContainerRuntimeMetrics&>(
        tb.app->runtime_metrics(tb.app->service_container(svc).id()));
    return m.flush(tb.sim.now()).upscale_hint_received;
  };
  EXPECT_FALSE(hint_received(0));
  EXPECT_FALSE(hint_received(1));
  EXPECT_TRUE(hint_received(2));
  EXPECT_TRUE(hint_received(3));
}

TEST(ApplicationTest, StampDepthOneReachesOnlyChild) {
  MiniTestbed tb(chain_spec(4));
  tb.app->set_upscale_stamp(tb.app->service_container(1).id(), 1);
  tb.run_one_request();
  auto hint_received = [&](int svc) {
    ContainerRuntimeMetrics& m = const_cast<ContainerRuntimeMetrics&>(
        tb.app->runtime_metrics(tb.app->service_container(svc).id()));
    return m.flush(tb.sim.now()).upscale_hint_received;
  };
  EXPECT_TRUE(hint_received(2));
  EXPECT_FALSE(hint_received(3));
}

TEST(ApplicationTest, ClearingStampStopsHints) {
  MiniTestbed tb(chain_spec(3));
  tb.app->set_upscale_stamp(tb.app->service_container(0).id(), 3);
  tb.app->set_upscale_stamp(tb.app->service_container(0).id(), 0);
  tb.run_one_request();
  ContainerRuntimeMetrics& m = const_cast<ContainerRuntimeMetrics&>(
      tb.app->runtime_metrics(tb.app->service_container(1).id()));
  EXPECT_FALSE(m.flush(tb.sim.now()).upscale_hint_received);
}

TEST(ApplicationTest, TopologyMatchesSpec) {
  MiniTestbed tb(chain_spec(3));
  const AppTopology topo = tb.app->topology();
  const int c0 = tb.app->service_container(0).id();
  const int c1 = tb.app->service_container(1).id();
  const int c2 = tb.app->service_container(2).id();
  EXPECT_EQ(topo.entry, c0);
  EXPECT_EQ(topo.downstream.at(c0), std::vector<int>{c1});
  EXPECT_EQ(topo.downstream.at(c1), std::vector<int>{c2});
  EXPECT_TRUE(topo.downstream.at(c2).empty());
}

TEST(ApplicationTest, DownstreamOnNodeTransitive) {
  MiniTestbed tb(chain_spec(4));
  const AppTopology topo = tb.app->topology();
  const auto down = topo.downstream_on_node(tb.app->service_container(0).id(),
                                            0, tb.cluster);
  EXPECT_EQ(down.size(), 3u);  // all on node 0
}

TEST(ApplicationTest, MetricPublicationFlushesToBus) {
  MiniTestbed tb(chain_spec(2));
  tb.app->start_metric_publication();
  // Run a few requests across several publication intervals.
  tb.network.register_client_receiver([](const RpcPacket&) {});
  for (int i = 0; i < 5; ++i) {
    RpcPacket pkt;
    pkt.request_id = static_cast<RequestId>(i + 1);
    pkt.dst_container = tb.app->entry_container();
    pkt.dst_node = tb.app->entry_node();
    pkt.start_time = tb.sim.now();
    tb.network.send(kClientNode, pkt);
    tb.sim.run_until(tb.sim.now() + 60 * kMillisecond);
  }
  const auto snap =
      tb.metrics.node_bus(0).latest(tb.app->entry_container());
  ASSERT_TRUE(snap.has_value());
  EXPECT_GT(snap->window_end, TimePoint::origin());
}

// Records the call id of every child-RPC request and response it sees, and
// forwards the fate decision to an optional inner hook.
struct CallIdRecorder final : PacketFaultHook {
  PacketFaultHook* inner = nullptr;
  std::vector<std::uint64_t> requests;
  std::vector<std::uint64_t> duplicated_responses;

  PacketFate on_send(const RpcPacket& pkt) override {
    const PacketFate fate =
        inner != nullptr ? inner->on_send(pkt) : PacketFate{};
    if (pkt.call_id == 0) return fate;  // client traffic
    if (!pkt.is_response) {
      requests.push_back(pkt.call_id);
    } else if (fate.duplicate && !fate.drop) {
      duplicated_responses.push_back(pkt.call_id);
    }
    return fate;
  }
};

std::uint32_t slot_of(std::uint64_t call_id) {
  return static_cast<std::uint32_t>(call_id);
}

TEST(ApplicationTest, ResponseToAReusedCallSlotIsStray) {
  // The first child call times out after 20us, well before its 40us round
  // trip, and is re-sent under a new call id that reuses the freed slot.
  // The original's response then arrives while the retransmission holds
  // that slot: its generation no longer matches, so it must count as stray
  // and must not complete the retransmitted call early.
  NetworkLatencyModel model;
  model.jitter = 0.0;
  RpcRetryPolicy retry;
  retry.enabled = true;
  retry.timeout = 20 * kMicrosecond;
  retry.backoff = 10.0;  // the retransmission's 200us never fires
  retry.max_retries = 1;
  MiniTestbed tb(chain_spec(2), 4, model, retry);
  CallIdRecorder recorder;
  tb.network.set_fault_hook(&recorder);

  auto [done, latency] = tb.run_one_request();
  ASSERT_TRUE(done);
  EXPECT_EQ(tb.app->rpc_retries(), 1u);
  EXPECT_EQ(tb.app->stray_responses(), 1u);
  EXPECT_EQ(tb.app->rpc_failures(), 0u);
  ASSERT_EQ(recorder.requests.size(), 2u);
  EXPECT_EQ(slot_of(recorder.requests[0]), slot_of(recorder.requests[1]));
  EXPECT_NE(recorder.requests[0], recorder.requests[1]);
  // Completed by the retransmission's own response: the client hops, both
  // services' work, the 20us timeout and one full child round trip. Had the
  // stale response completed the call, the timeout would be missing.
  const Duration expected = 2 * model.cross_node + Duration{2 * 10'000} +
                            20 * kMicrosecond + 2 * model.same_node;
  EXPECT_EQ(latency, expected);
  EXPECT_EQ(tb.app->in_flight(), 0);
  for (int i = 0; i < tb.app->service_count(); ++i) {
    EXPECT_EQ(tb.app->service_container(i).active_jobs(), 0);
  }
}

TEST(ApplicationTest, FrontendAbsorbsDuplicatesOnlyWhileInFlight) {
  // Frontend idempotency: a client retransmission of a request the entry
  // service is still processing is absorbed, so it gets one response. Once
  // the request has completed and the frontend's window has moved past it,
  // a retransmission re-executes, also below a later request in flight.
  NetworkLatencyModel model;
  model.jitter = 0.0;
  MiniTestbed tb(chain_spec(2, 1'000'000.0), 4, model);  // 2 ms of work
  std::vector<RequestId> responses;
  tb.network.register_client_receiver(
      [&](const RpcPacket& p) { responses.push_back(p.request_id); });
  const auto send = [&](RequestId id) {
    RpcPacket pkt;
    pkt.request_id = id;
    pkt.dst_container = tb.app->entry_container();
    pkt.dst_node = tb.app->entry_node();
    pkt.start_time = tb.sim.now();
    tb.network.send(kClientNode, pkt);
  };

  send(1);
  tb.sim.run_until(TimePoint::at(500 * kMicrosecond));
  EXPECT_EQ(tb.app->in_flight(), 1);
  send(1);  // delivered while request 1 is in flight
  tb.sim.run_until(TimePoint::at(1000 * kMicrosecond));
  EXPECT_EQ(tb.app->in_flight(), 1);
  tb.sim.run_to_completion();
  EXPECT_EQ(responses, std::vector<RequestId>{1});
  EXPECT_EQ(tb.app->requests_completed(), 1u);

  send(2);
  send(3);
  tb.sim.run_to_completion();
  EXPECT_EQ(tb.app->requests_completed(), 3u);
  EXPECT_EQ(tb.app->in_flight(), 0);

  send(4);
  send(1);  // the late retransmission: below request 4 in the window
  tb.sim.run_until(tb.sim.now() + 500 * kMicrosecond);
  EXPECT_EQ(tb.app->in_flight(), 2);
  tb.sim.run_to_completion();
  EXPECT_EQ(responses, (std::vector<RequestId>{1, 2, 3, 4, 1}));
  EXPECT_EQ(tb.app->requests_completed(), 5u);
  EXPECT_EQ(tb.app->in_flight(), 0);
}

TEST(ApplicationTest, DupAndDropFaultsConserveRequests) {
  // Duplicated child responses arrive after their call has completed, often
  // once a newer call holds the same slot. Each must count as stray and
  // touch nothing else, so every request still drains exactly once.
  using namespace sg::literals;
  RpcRetryPolicy retry;
  retry.enabled = true;
  retry.timeout = 2_ms;
  MiniTestbed tb(chain_spec(3, 50'000.0), 4, {}, retry);
  std::string error;
  const auto plan = FaultPlan::parse(
      "dup:start_ms=0,len_ms=400,rate=0.3;drop:start_ms=0,len_ms=400,rate=0.05",
      &error);
  ASSERT_TRUE(plan.has_value()) << error;
  FaultInjector injector(tb.sim, *plan);
  injector.arm(&tb.network, &tb.cluster);
  CallIdRecorder recorder;
  recorder.inner = &injector;
  tb.network.set_fault_hook(&recorder);

  LoadGenOptions lg;
  lg.pattern = SpikePattern::steady(20'000);
  lg.warmup = 0_s;
  lg.duration = 400_ms;
  lg.retry = retry;
  LoadGenerator gen(tb.sim, tb.network, *tb.app, lg);
  gen.start();
  tb.sim.run_until(gen.measure_end());
  gen.stop();
  tb.sim.run_to_completion();

  const LoadGenResults r = gen.results();
  EXPECT_GT(injector.stats().packets_duplicated, 0u);
  EXPECT_GT(injector.stats().packets_dropped, 0u);
  EXPECT_GT(tb.app->rpc_retries(), 0u);
  EXPECT_GT(tb.app->stray_responses(), 0u);
  // Some duplicated response's slot was reissued to a later call.
  bool slot_reused = false;
  for (std::uint64_t dup : recorder.duplicated_responses) {
    for (std::uint64_t req : recorder.requests) {
      if (slot_of(req) == slot_of(dup) && (req >> 32) > (dup >> 32)) {
        slot_reused = true;
      }
    }
    if (slot_reused) break;
  }
  EXPECT_TRUE(slot_reused);
  EXPECT_GT(r.issued, 0u);
  EXPECT_EQ(r.issued, r.completed_total + r.dropped + r.outstanding);
  EXPECT_EQ(r.outstanding, 0u);
  EXPECT_EQ(tb.app->in_flight(), 0);
  for (int i = 0; i < tb.app->service_count(); ++i) {
    EXPECT_EQ(tb.app->service_container(i).active_jobs(), 0);
  }
}

}  // namespace
}  // namespace sg
