#include "app/application.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "trace/trace.hpp"

namespace sg {

namespace {

/// mu of the log-normal with the given mean and sigma:
/// E = exp(mu + sigma^2 / 2).
double lognormal_mu(double mean, double sigma) {
  return std::log(mean) - 0.5 * sigma * sigma;
}

}  // namespace

Duration RpcRetryPolicy::timeout_for_attempt(int attempt) const {
  double t = static_cast<double>(timeout.ns());
  for (int i = 0; i < attempt; ++i) t *= backoff;
  return Duration{static_cast<std::int64_t>(t)};
}

std::vector<int> AppTopology::downstream_on_node(int container, int node,
                                                 const Cluster& cluster) const {
  std::vector<int> out;
  std::vector<int> frontier{container};
  std::vector<int> seen;
  while (!frontier.empty()) {
    const int u = frontier.back();
    frontier.pop_back();
    const auto it = downstream.find(u);
    if (it == downstream.end()) continue;
    for (int v : it->second) {
      if (std::find(seen.begin(), seen.end(), v) != seen.end()) continue;
      seen.push_back(v);
      frontier.push_back(v);
      if (cluster.container(v).node() == node) out.push_back(v);
    }
  }
  return out;
}

Deployment Deployment::single_node(const AppSpec& spec, NodeId node,
                                   int cores_per_service) {
  Deployment d;
  d.node_of_service.assign(spec.services.size(), node);
  d.initial_cores.assign(spec.services.size(), cores_per_service);
  return d;
}

Application::Application(Cluster& cluster, Network& network,
                         MetricsPlane& metrics, AppSpec spec,
                         const Deployment& deployment, RpcRetryPolicy retry)
    : cluster_(cluster),
      network_(network),
      metrics_plane_(metrics),
      spec_(std::move(spec)),
      retry_(retry) {
  Rng root = cluster.sim().rng().fork();
  std::string error;
  SG_ASSERT_MSG(spec_.validate(&error), error.c_str());
  SG_ASSERT(deployment.node_of_service.size() == spec_.services.size());
  SG_ASSERT(deployment.initial_cores.size() == spec_.services.size());

  services_.reserve(spec_.services.size());
  service_rngs_.reserve(spec_.services.size());
  for (std::size_t i = 0; i < spec_.services.size(); ++i) {
    const ServiceSpec& ss = spec_.services[i];
    Container& c = cluster_.add_container(
        spec_.name + "/" + ss.name, deployment.node_of_service[i],
        deployment.initial_cores[i]);
    ServiceRuntime sr;
    sr.spec = &spec_.services[i];
    sr.index = static_cast<int>(i);
    sr.work_mu = lognormal_mu(ss.work_ns_mean, ss.work_sigma);
    sr.container = &c;
    sr.metrics = ContainerRuntimeMetrics(c.id());
    for (std::size_t k = 0; k < ss.children.size(); ++k) {
      int cap;
      if (!spec_.pool_sizes.empty()) {
        cap = spec_.pool_sizes[i][k];
      } else if (spec_.threading == ThreadingModel::kFixedThreadPool) {
        cap = spec_.threadpool_size;
      } else {
        cap = -1;
      }
      sr.child_pools.emplace_back(cap);
    }
    services_.push_back(std::move(sr));
    service_rngs_.push_back(root.fork());
    const auto slot = static_cast<std::size_t>(c.id());
    if (service_by_container_.size() <= slot) {
      service_by_container_.resize(slot + 1, -1);
    }
    service_by_container_[slot] = static_cast<int>(i);
    network_.register_receiver(c.id(),
                               [this](const RpcPacket& pkt) { on_packet(pkt); });
  }
}

void Application::start_metric_publication() {
  for (ServiceRuntime& sr : services_) {
    ServiceRuntime* srp = &sr;
    cluster_.sim().schedule_periodic(
        TimePoint::at(kMetricsInterval), kMetricsInterval,
        [this, srp]() {
          const MetricsSnapshot snap =
              srp->metrics.flush(cluster_.sim().now());
          metrics_plane_.node_bus(srp->container->node()).publish(snap);
          return true;  // publish for the lifetime of the simulation
        });
  }
}

void Application::set_upscale_stamp(ContainerId container, int stamp) {
  services_[service_of_container(container)].upscale_stamp = std::max(0, stamp);
}

const ContainerRuntimeMetrics& Application::runtime_metrics(
    ContainerId container) const {
  return services_[service_of_container(container)].metrics;
}

AppTopology Application::topology() const {
  AppTopology topo;
  topo.entry = services_.front().container->id();
  for (const ServiceRuntime& sr : services_) {
    std::vector<int> kids;
    kids.reserve(sr.spec->children.size());
    for (int child : sr.spec->children)
      kids.push_back(services_[static_cast<std::size_t>(child)].container->id());
    topo.downstream.emplace(sr.container->id(), std::move(kids));
  }
  return topo;
}

std::size_t Application::service_of_container(int container) const {
  const auto slot = static_cast<std::size_t>(container);
  SG_ASSERT_MSG(container >= 0 && slot < service_by_container_.size() &&
                    service_by_container_[slot] >= 0,
                "unknown container");
  return static_cast<std::size_t>(service_by_container_[slot]);
}

int Application::outgoing_upscale(const ServiceRuntime& sr,
                                  const Visit& v) const {
  // Fig. 8: a hint set here (upscale_stamp) or arriving from upstream
  // (arrived_upscale, decremented per hop) is forwarded downstream.
  return std::max({sr.upscale_stamp, v.arrived_upscale - 1, 0});
}

void Application::on_packet(const RpcPacket& pkt) {
  if (pkt.is_response) {
    on_response(pkt);
  } else {
    on_request(pkt);
  }
}

void Application::on_request(const RpcPacket& pkt) {
  ServiceRuntime& sr = services_[service_of_container(pkt.dst_container)];
  const TimePoint now = cluster_.sim().now();

  if (sr.index == 0) {
    // Idempotency-key dedup at the frontend: a client retransmission (or a
    // dup-faulted delivery) of a request that is still being processed must
    // not re-execute the whole task graph — spurious retransmissions of
    // slow-but-alive requests would otherwise amplify a short fault window
    // into a metastable retry storm. The in-flight visit's eventual
    // response completes the request; only requests the frontend has
    // already forgotten (genuinely lost, or response lost) re-execute.
    if (!entry_requests_.insert(pkt.request_id).second) return;
  }

  // Built in its slot: filling a stack Visit and copying it in costs a
  // store-forwarding stall per visit.
  const VisitKey key = visits_.insert(Visit{});
  Visit& v = visits_.at(key);
  v.request_id = pkt.request_id;
  v.service = sr.index;
  v.start_time = pkt.start_time;
  v.arrive = now;
  v.arrived_upscale = pkt.upscale;
  v.reply_to = ReplyAddress{pkt.src_container, pkt.src_node, pkt.call_id};
  if (cluster_.sim().trace_sink() != nullptr) {
    // Open the own-work exec segment. sync() brings the share integral up
    // to `now` so the delta read at completion is exact (state after sync()
    // is bit-identical to what submit() below would produce anyway).
    sr.container->sync();
    v.exec_share0 = sr.container->share_integral_ns();
  }

  const double work =
      sr.spec->work_ns_mean <= 0.0
          ? 0.0
          : (sr.spec->work_sigma > 0.0
                 ? service_rngs_[static_cast<std::size_t>(sr.index)]
                       .lognormal(sr.work_mu, sr.spec->work_sigma)
                 : sr.spec->work_ns_mean);
  sr.container->submit(work, [this, key]() { on_own_work_done(key); });
}

void Application::on_own_work_done(VisitKey key) {
  Visit& v = visits_.at(key);
  ServiceRuntime& sr = services_[static_cast<std::size_t>(v.service)];
  const ServiceSpec& spec = *sr.spec;
  if (TraceSink* trace = cluster_.sim().trace_sink()) {
    TraceSpan span;
    span.request_id = v.request_id;
    span.kind = SpanKind::kExec;
    span.container = sr.container->id();
    span.begin = v.arrive;
    span.end = cluster_.sim().now();
    // We run inside the container's completion handler: the share
    // integral is already advanced to now, so the delta is exact.
    span.cpu_served_ns = sr.container->share_integral_ns() - v.exec_share0;
    trace->add_span(span);
  }
  if (spec.children.empty()) {
    reply(key);
    return;
  }
  if (spec.fanout == FanoutMode::kParallel) {
    v.pending_children = static_cast<int>(spec.children.size());
    // begin_child may resume synchronously and send the RPC, so iterate
    // over a stable count and leave `v` alone (key-based API).
    const std::size_t n = spec.children.size();
    for (std::size_t i = 0; i < n; ++i) begin_child(key, i);
  } else {
    begin_child(key, 0);
  }
}

void Application::begin_child(VisitKey key, std::size_t child_idx) {
  ServiceRuntime& sr =
      services_[static_cast<std::size_t>(visits_.at(key).service)];
  // The connection is granted now (free) or on a later release (implicit
  // queue). The wait, if any, is the hidden-dependency time (Fig. 5b).
  const ConnectionPool::Waiter w{key, cluster_.sim().now()};
  if (sr.child_pools[child_idx].acquire(w)) on_conn_granted(child_idx, w);
}

void Application::on_conn_granted(std::size_t child_idx,
                                  ConnectionPool::Waiter w) {
  Visit& v = visits_.at(w.visit);
  const TimePoint now = cluster_.sim().now();
  const Duration wait = now - w.since;
  v.conn_wait += wait;
  TraceSink* trace = cluster_.sim().trace_sink();
  if (trace != nullptr && wait > Duration::zero()) {
    TraceSpan span;
    span.request_id = v.request_id;
    span.kind = SpanKind::kConnWait;
    span.container =
        services_[static_cast<std::size_t>(v.service)].container->id();
    span.begin = w.since;
    span.end = now;
    trace->add_span(span);
  }
  send_child_rpc(w.visit, child_idx);
}

void Application::send_child_rpc(VisitKey key, std::size_t child_idx,
                                 int attempt) {
  const Visit& v = visits_.at(key);
  ServiceRuntime& sr = services_[static_cast<std::size_t>(v.service)];
  const int child_service = sr.spec->children[child_idx];
  Container& child_container =
      *services_[static_cast<std::size_t>(child_service)].container;

  PendingCall pc;
  pc.visit_key = key;
  pc.child_idx = child_idx;
  pc.attempt = attempt;
  const std::uint64_t call_id = calls_.insert(pc);
  if (retry_.enabled) {
    calls_.at(call_id).timer = cluster_.sim().schedule_timer(
        retry_.timeout_for_attempt(attempt),
        [this, call_id]() { on_call_timeout(call_id); });
  }

  RpcPacket pkt;
  pkt.request_id = v.request_id;
  pkt.call_id = call_id;
  pkt.src_container = sr.container->id();
  pkt.src_node = sr.container->node();
  pkt.dst_container = child_container.id();
  pkt.dst_node = child_container.node();
  pkt.is_response = false;
  pkt.start_time = v.start_time;   // propagated unchanged (Fig. 8)
  pkt.upscale = outgoing_upscale(sr, v);
  network_.send(pkt.src_node, pkt);
}

void Application::on_call_timeout(std::uint64_t call_id) {
  // The response cancels this timer, so the call is still pending here.
  // The held connection stays held across retransmissions: the retry is the
  // same logical call, re-sent on the same connection under a new call id.
  const PendingCall pc = calls_.take(call_id);
  if (pc.attempt < retry_.max_retries) {
    ++rpc_retries_;
    send_child_rpc(pc.visit_key, pc.child_idx, pc.attempt + 1);
    return;
  }
  // Retries exhausted: abandon the call but complete the visit degraded, so
  // the request conserves (it drains as completed, never strands).
  ++rpc_failures_;
  on_child_reply(pc.visit_key, pc.child_idx);
}

void Application::on_response(const RpcPacket& pkt) {
  const PendingCall* found = calls_.find(pkt.call_id);
  if (found == nullptr) {
    // Duplicate response, or an original that lost the race against its own
    // retransmission. At-least-once delivery makes these benign under
    // faults; count them so fault-free tests can assert zero. The call id's
    // generation check keeps this exact even after the call's slot has been
    // reused by a newer call.
    ++stray_responses_;
    return;
  }
  const PendingCall pc = *found;
  if (pc.timer != kInvalidEvent) cluster_.sim().cancel(pc.timer);
  calls_.erase(pkt.call_id);
  on_child_reply(pc.visit_key, pc.child_idx);
}

void Application::on_child_reply(VisitKey key, std::size_t child_idx) {
  ServiceRuntime& sr =
      services_[static_cast<std::size_t>(visits_.at(key).service)];
  // A waiting visit is handed the connection and sends its RPC now.
  if (const auto next = sr.child_pools[child_idx].release()) {
    on_conn_granted(child_idx, *next);
  }

  if (sr.spec->fanout == FanoutMode::kParallel) {
    if (--visits_.at(key).pending_children == 0) reply(key);
    return;
  }
  // Sequential fan-out: the next child follows the one that replied.
  if (child_idx + 1 < sr.spec->children.size()) {
    begin_child(key, child_idx + 1);
  } else {
    reply(key);
  }
}

void Application::reply(VisitKey key) {
  const Visit& v = visits_.at(key);
  ServiceRuntime& sr = services_[static_cast<std::size_t>(v.service)];
  const TimePoint now = cluster_.sim().now();

  VisitRecord rec;
  rec.container = sr.container->id();
  rec.arrive = v.arrive;
  rec.depart = now;
  rec.conn_wait = v.conn_wait;
  rec.time_from_start = v.arrive - v.start_time;  // eq. 5 at ingress
  rec.upscale_hint = v.arrived_upscale > 0;
  sr.metrics.record_visit(rec);

  if (TraceSink* trace = cluster_.sim().trace_sink()) {
    TraceSpan visit;
    visit.request_id = v.request_id;
    visit.kind = SpanKind::kVisit;
    visit.container = sr.container->id();
    visit.begin = v.arrive;
    visit.end = now;
    visit.boost_active_ns = static_cast<double>(
        sr.container->freq_timeline()
            .time_above(v.arrive, now, static_cast<double>(kDvfs.min_mhz))
            .ns());
    trace->add_span(visit);
  }

  RpcPacket pkt;
  pkt.request_id = v.request_id;
  pkt.call_id = v.reply_to.call_id;
  pkt.src_container = sr.container->id();
  pkt.src_node = sr.container->node();
  pkt.dst_container = v.reply_to.container;
  pkt.dst_node = v.reply_to.node;
  pkt.is_response = true;
  pkt.start_time = v.start_time;
  pkt.upscale = 0;

  if (sr.index == 0) {
    ++requests_completed_;
    entry_requests_.erase(v.request_id);
  }
  visits_.erase(key);
  network_.send(pkt.src_node, pkt);
}

}  // namespace sg
