#include "controllers/first_responder.hpp"

#include "common/assert.hpp"

namespace sg {

void FirstResponder::start() {
  const Duration e2e = env_.targets.expected_e2e_latency;
  freeze_window_ =
      e2e > Duration::zero() ? kFreezeMultiple * e2e : Duration::ms(2);
  for (const auto& [container, targets] : env_.targets.per_container) {
    SG_ASSERT_MSG(container >= 0, "targets for a negative container id");
    const auto slot = static_cast<std::size_t>(container);
    if (slot >= slack_limit_.size()) {
      slack_limit_.resize(slot + 1, Duration::infinity());
    }
    slack_limit_[slot] = kSlackMargin * targets.expected_time_from_start;
  }
  frozen_until_.assign(slack_limit_.size(), TimePoint::origin());
  network_.add_rx_hook(env_.node->id(), this);
}

void FirstResponder::on_packet(const RpcPacket& pkt) {
  ++packets_inspected_;
  if (pkt.dst_container == kClientEndpoint) return;
  // Progress tracking compares arrival time against the expected elapsed
  // time at request INGRESS; responses flowing back upstream carry the whole
  // downstream latency and would trivially (and meaninglessly) violate.
  if (pkt.is_response) return;
  const auto slot = static_cast<std::size_t>(pkt.dst_container);
  if (slot >= slack_limit_.size()) return;
  const Duration expected = slack_limit_[slot];
  if (expected == Duration::infinity()) return;  // no targets

  // Per-packet slack (eqs. 4-5): expected minus observed progress.
  const Duration observed = env_.sim->now() - pkt.start_time;
  const Duration slack = expected - observed;
  if (slack >= Duration::zero()) return;
  ++violations_detected_;

  // Path freeze: one boost per path per window bounds update churn.
  const TimePoint now = env_.sim->now();
  if (now < frozen_until_[slot]) return;
  frozen_until_[slot] = now + freeze_window_;

  // Coordinator enqueues; worker applies the boost off the critical path.
  const int target = pkt.dst_container;
  env_.sim->schedule_after(kUpdateLatency, [this, target]() { boost(target); });
}

void FirstResponder::boost(int container) {
  // The violating container and its same-node downstream containers jump to
  // max frequency (the paper's FirstResponder response).
  const auto to_max = [this](Container& c) {
    act_.set_frequency(c, kDvfs.max_mhz);
    ++boosts_applied_;
  };
  to_max(env_.cluster->container(container));
  for (int d : env_.topology.downstream_on_node(container, env_.node->id(),
                                                *env_.cluster)) {
    to_max(env_.cluster->container(d));
  }
}

}  // namespace sg
