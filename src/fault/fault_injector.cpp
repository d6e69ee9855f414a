#include "fault/fault_injector.hpp"

#include <cstdio>

#include "common/assert.hpp"

namespace sg {

std::string FaultStats::digest() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "drops=%llu dups=%llu delayed=%llu slow=%llu freeze=%llu "
                "restart=%llu",
                static_cast<unsigned long long>(packets_dropped),
                static_cast<unsigned long long>(packets_duplicated),
                static_cast<unsigned long long>(packets_delayed),
                static_cast<unsigned long long>(node_slowdowns),
                static_cast<unsigned long long>(node_freezes),
                static_cast<unsigned long long>(node_restarts));
  return buf;
}

FaultInjector::FaultInjector(Simulator& sim, FaultPlan plan)
    : sim_(sim), plan_(std::move(plan)), rng_(sim.rng().fork()) {
  std::string error;
  SG_ASSERT_MSG(plan_.validate(&error), error.c_str());
}

void FaultInjector::arm(Network* net, Cluster* cluster) {
  SG_ASSERT_MSG(!armed_, "fault injector armed twice");
  armed_ = true;
  if (net != nullptr) {
    SG_ASSERT_MSG(cluster == nullptr ||
                      cluster->node_count() ==
                          static_cast<std::size_t>(net->node_count()),
                  "network and cluster disagree on the node count");
    // Fork per-sender streams in a fixed order (client first, then nodes)
    // so each sender's coin-flip sequence is a pure function of its own
    // packet order. The streams are pinned by the committed fingerprints.
    const auto senders = static_cast<std::size_t>(net->node_count()) + 1;
    streams_.reserve(senders);
    for (std::size_t s = 0; s < senders; ++s) streams_.push_back(rng_.fork());
    net->set_fault_hook(this);
  }
  if (cluster != nullptr) schedule_node_windows(*cluster);
  // Controller-stall windows gate periodic kController ticks. The gate is
  // pure (reads the plan against the clock), so installing it even for
  // plans without stall windows would be harmless — but skip it to leave
  // the simulator untouched for such plans.
  bool has_stall = false;
  for (const FaultWindow& w : plan_.windows()) {
    has_stall |= w.kind == FaultKind::kControllerStall;
  }
  if (has_stall) {
    sim_.set_tick_gate([this](Simulator::TickClass cls) {
      if (cls != Simulator::TickClass::kController) return true;
      return !plan_.controller_stalled_at(sim_.now());
    });
  }
}

void FaultInjector::schedule_node_windows(Cluster& cluster) {
  for (const FaultWindow& w : plan_.windows()) {
    if (w.kind != FaultKind::kNodeSlowdown && w.kind != FaultKind::kNodeFreeze)
      continue;
    std::vector<NodeId> targets;
    if (w.node >= 0) {
      SG_ASSERT_MSG(static_cast<std::size_t>(w.node) < cluster.node_count(),
                    "fault window targets a node that does not exist");
      targets.push_back(w.node);
    } else {
      for (std::size_t n = 0; n < cluster.node_count(); ++n) {
        targets.push_back(static_cast<NodeId>(n));
      }
    }
    // One start/end event per target node (containers resolve at fire
    // time). The per-node events count towards events_processed, which the
    // committed fingerprints pin, so they are not merged into one.
    for (NodeId n : targets) {
      if (w.kind == FaultKind::kNodeSlowdown) {
        const double factor = w.factor;
        sim_.schedule_at(w.start, [this, &cluster, n, factor]() {
          cluster.node(n).set_slowdown(factor);
          ++stats_.node_slowdowns;
        });
        sim_.schedule_at(w.end, [&cluster, n]() {
          cluster.node(n).set_slowdown(1.0);
        });
      } else {
        sim_.schedule_at(w.start, [this, &cluster, n]() {
          cluster.node(n).freeze();
          ++stats_.node_freezes;
        });
        sim_.schedule_at(w.end, [this, &cluster, n]() {
          cluster.node(n).restart();
          ++stats_.node_restarts;
        });
      }
    }
  }
}

PacketFate FaultInjector::on_send(const RpcPacket& pkt) {
  const TimePoint now = sim_.now();
  const auto slot = static_cast<std::size_t>(pkt.src_node + 1);
  SG_ASSERT_MSG(pkt.src_node >= kClientNode && slot < streams_.size(),
                "fault stream for unknown node");
  Rng& rng = streams_[slot];
  PacketFate fate;
  // Draw order is fixed (drop, then dup) and unconditional within an active
  // window, so the RNG stream consumed per packet depends only on the
  // sender's packet sequence — not on outcomes — keeping replays aligned.
  const double drop_p = plan_.drop_rate_at(now);
  if (drop_p > 0.0 && rng.bernoulli(drop_p)) {
    fate.drop = true;
    ++stats_.packets_dropped;
    return fate;
  }
  const double dup_p = plan_.dup_rate_at(now);
  if (dup_p > 0.0 && rng.bernoulli(dup_p)) {
    fate.duplicate = true;
    ++stats_.packets_duplicated;
  }
  fate.extra_delay = plan_.extra_delay_at(now);
  if (fate.extra_delay > Duration::zero()) ++stats_.packets_delayed;
  return fate;
}

}  // namespace sg
