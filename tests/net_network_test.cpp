#include "net/network.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace sg {
namespace {

RpcPacket make_packet(int dst_container, int dst_node) {
  RpcPacket p;
  p.request_id = 1;
  p.dst_container = dst_container;
  p.dst_node = dst_node;
  return p;
}

TEST(NetworkTest, DeliversToRegisteredReceiver) {
  Simulator sim;
  Network net(sim);
  int received = 0;
  net.register_receiver(7, [&](const RpcPacket& p) {
    EXPECT_EQ(p.dst_container, 7);
    ++received;
  });
  net.send(0, make_packet(7, 0));
  sim.run_to_completion();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(net.packets_delivered(), 1u);
}

TEST(NetworkTest, SameNodeFasterThanCrossNode) {
  Simulator sim;
  NetworkLatencyModel model;
  model.jitter = 0.0;
  Network net(sim, model, 2);
  TimePoint same, cross;
  net.register_receiver(1, [&](const RpcPacket&) { same = sim.now(); });
  net.register_receiver(2, [&](const RpcPacket&) { cross = sim.now(); });
  net.send(0, make_packet(1, 0));  // same node
  net.send(0, make_packet(2, 1));  // cross node
  sim.run_to_completion();
  EXPECT_EQ(same, TimePoint::at(model.same_node));
  EXPECT_EQ(cross, TimePoint::at(model.cross_node));
}

TEST(NetworkTest, JitterBoundsLatency) {
  Simulator sim;
  NetworkLatencyModel model;
  model.jitter = 0.1;
  Network net(sim, model);
  std::vector<Duration> deliveries;
  TimePoint sent_at;
  net.register_receiver(1, [&](const RpcPacket&) {
    deliveries.push_back(sim.now() - sent_at);
  });
  for (int i = 0; i < 200; ++i) {
    sent_at = sim.now();
    net.send(0, make_packet(1, 0));
    sim.run_to_completion();
  }
  for (Duration d : deliveries) {
    EXPECT_GE(d, 0.9 * model.same_node - kNanosecond);
    EXPECT_LE(d, 1.1 * model.same_node + kNanosecond);
  }
}

TEST(NetworkTest, ClientReceiverGetsResponses) {
  Simulator sim;
  Network net(sim);
  int got = 0;
  net.register_client_receiver([&](const RpcPacket& p) {
    EXPECT_TRUE(p.is_response);
    ++got;
  });
  RpcPacket p = make_packet(kClientEndpoint, kClientNode);
  p.is_response = true;
  net.send(0, p);
  sim.run_to_completion();
  EXPECT_EQ(got, 1);
}

class CountingHook : public RxHook {
 public:
  void on_packet(const RpcPacket& pkt) override {
    seen.push_back(pkt.dst_container);
  }
  std::vector<int> seen;
};

TEST(NetworkTest, RxHookRunsBeforeReceiver) {
  Simulator sim;
  Network net(sim);
  CountingHook hook;
  std::vector<std::string> order;
  net.add_rx_hook(0, &hook);
  net.register_receiver(1, [&](const RpcPacket&) {
    // The hook must already have seen the packet (netif_receive_skb runs
    // before the destination container).
    EXPECT_EQ(hook.seen.size(), 1u);
    order.push_back("receiver");
  });
  net.send(0, make_packet(1, 0));
  sim.run_to_completion();
  EXPECT_EQ(order.size(), 1u);
}

TEST(NetworkTest, HookOnlyOnDestinationNode) {
  Simulator sim;
  Network net(sim, {}, 2);
  CountingHook hook0, hook1;
  net.add_rx_hook(0, &hook0);
  net.add_rx_hook(1, &hook1);
  net.register_receiver(1, [](const RpcPacket&) {});
  net.register_receiver(2, [](const RpcPacket&) {});
  net.send(0, make_packet(1, 0));
  net.send(0, make_packet(2, 1));
  sim.run_to_completion();
  EXPECT_EQ(hook0.seen.size(), 1u);
  EXPECT_EQ(hook1.seen.size(), 1u);
  EXPECT_EQ(hook0.seen[0], 1);
  EXPECT_EQ(hook1.seen[0], 2);
}

TEST(NetworkTest, MultipleHooksChainInOrder) {
  Simulator sim;
  Network net(sim);
  CountingHook a, b;
  net.add_rx_hook(0, &a);
  net.add_rx_hook(0, &b);
  net.register_receiver(1, [](const RpcPacket&) {});
  net.send(0, make_packet(1, 0));
  sim.run_to_completion();
  EXPECT_EQ(a.seen.size(), 1u);
  EXPECT_EQ(b.seen.size(), 1u);
}

// Appends a tag to a shared log, exposing the exact hook/receiver sequence.
class TaggingHook : public RxHook {
 public:
  TaggingHook(std::vector<std::string>* log, std::string tag)
      : log_(log), tag_(std::move(tag)) {}
  void on_packet(const RpcPacket&) override { log_->push_back(tag_); }

 private:
  std::vector<std::string>* log_;
  std::string tag_;
};

TEST(NetworkTest, HookChainRunsInRegistrationOrderPerDelivery) {
  Simulator sim;
  Network net(sim);
  std::vector<std::string> log;
  TaggingHook a(&log, "a"), b(&log, "b"), c(&log, "c");
  net.add_rx_hook(0, &a);
  net.add_rx_hook(0, &b);
  net.add_rx_hook(0, &c);
  net.register_receiver(1, [&](const RpcPacket&) { log.push_back("rx"); });
  net.send(0, make_packet(1, 0));
  net.send(0, make_packet(1, 0));
  sim.run_to_completion();
  const std::vector<std::string> expected = {"a", "b", "c", "rx",
                                             "a", "b", "c", "rx"};
  EXPECT_EQ(log, expected);
}

// Scripted wire-level fault hook: returns one fixed fate for every packet.
class ScriptedFaultHook : public PacketFaultHook {
 public:
  PacketFate fate;
  int consulted = 0;
  PacketFate on_send(const RpcPacket&) override {
    ++consulted;
    return fate;
  }
};

TEST(NetworkFaultTest, DroppedPacketInvisibleToHooksAndReceiver) {
  Simulator sim;
  Network net(sim);
  ScriptedFaultHook fault;
  fault.fate.drop = true;
  net.set_fault_hook(&fault);
  CountingHook rx_hook;
  net.add_rx_hook(0, &rx_hook);
  int received = 0;
  net.register_receiver(1, [&](const RpcPacket&) { ++received; });
  net.send(0, make_packet(1, 0));
  sim.run_to_completion();
  EXPECT_EQ(fault.consulted, 1);
  // Lost on the wire: neither the rx hook chain nor the receiver sees it.
  EXPECT_EQ(rx_hook.seen.size(), 0u);
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net.packets_delivered(), 0u);
}

TEST(NetworkFaultTest, DuplicatedPacketTraversesHookChainOncePerDelivery) {
  Simulator sim;
  NetworkLatencyModel model;
  model.jitter = 0.0;
  Network net(sim, model);
  ScriptedFaultHook fault;
  fault.fate.duplicate = true;
  net.set_fault_hook(&fault);
  CountingHook a, b;
  net.add_rx_hook(0, &a);
  net.add_rx_hook(0, &b);
  int received = 0;
  net.register_receiver(1, [&](const RpcPacket&) { ++received; });
  net.send(0, make_packet(1, 0));
  sim.run_to_completion();
  // One send, consulted once, delivered twice; every hook sees each copy
  // exactly once (never zero, never doubled per copy).
  EXPECT_EQ(fault.consulted, 1);
  EXPECT_EQ(received, 2);
  EXPECT_EQ(a.seen.size(), 2u);
  EXPECT_EQ(b.seen.size(), 2u);
  EXPECT_EQ(net.packets_delivered(), 2u);
}

TEST(NetworkFaultTest, ExtraDelayShiftsDeliveryAndHooksSeeDelayedCopy) {
  Simulator sim;
  NetworkLatencyModel model;
  model.jitter = 0.0;
  Network net(sim, model);
  ScriptedFaultHook fault;
  fault.fate.extra_delay = 1 * kMillisecond;
  net.set_fault_hook(&fault);
  CountingHook rx_hook;
  net.add_rx_hook(0, &rx_hook);
  TimePoint at;
  net.register_receiver(1, [&](const RpcPacket&) { at = sim.now(); });
  net.send(0, make_packet(1, 0));
  sim.run_to_completion();
  EXPECT_EQ(at, TimePoint::at(model.same_node + 1 * kMillisecond));
  // The delayed packet is still delivered (and hooked) exactly once.
  EXPECT_EQ(rx_hook.seen.size(), 1u);
  EXPECT_EQ(net.packets_delivered(), 1u);
}

TEST(NetworkFaultTest, ClearingFaultHookRestoresCleanDelivery) {
  Simulator sim;
  Network net(sim);
  ScriptedFaultHook fault;
  fault.fate.drop = true;
  net.set_fault_hook(&fault);
  net.set_fault_hook(nullptr);
  int received = 0;
  net.register_receiver(1, [&](const RpcPacket&) { ++received; });
  net.send(0, make_packet(1, 0));
  sim.run_to_completion();
  EXPECT_EQ(fault.consulted, 0);
  EXPECT_EQ(received, 1);
}

TEST(NetworkTest, PacketMetadataPreserved) {
  Simulator sim;
  Network net(sim, {}, 5);
  RpcPacket got;
  net.register_receiver(3, [&](const RpcPacket& p) { got = p; });
  RpcPacket sent = make_packet(3, 0);
  sent.start_time = TimePoint{12345};
  sent.upscale = 2;
  sent.call_id = 99;
  sent.src_container = 8;
  sent.src_node = 4;
  net.send(4, sent);
  sim.run_to_completion();
  EXPECT_EQ(got.start_time, TimePoint{12345});
  EXPECT_EQ(got.upscale, 2);
  EXPECT_EQ(got.call_id, 99u);
  EXPECT_EQ(got.src_container, 8);
  EXPECT_EQ(got.src_node, 4);
}

// Latency of one node-1 packet, optionally after node 0 sent `others`.
Duration node1_latency(int others) {
  Simulator sim(9);
  Network net(sim, {}, 2);
  TimePoint at;
  net.register_receiver(0, [](const RpcPacket&) {});
  net.register_receiver(1, [&](const RpcPacket&) { at = sim.now(); });
  for (int i = 0; i < others; ++i) net.send(0, make_packet(0, 0));
  net.send(1, make_packet(1, 1));
  sim.run_to_completion();
  return at - TimePoint::origin();
}

TEST(NetworkTest, SenderJitterIgnoresOtherSenders) {
  // Each sender draws from its own stream: node 0's traffic does not shift
  // node 1's latency draws.
  const Duration alone = node1_latency(0);
  EXPECT_EQ(node1_latency(1), alone);
  EXPECT_EQ(node1_latency(7), alone);
}

TEST(NetworkDeathTest, SendRejectsUnknownNodes) {
  Simulator sim;
  Network net(sim, {}, 2);
  net.register_receiver(1, [](const RpcPacket&) {});
  EXPECT_DEATH(net.send(2, make_packet(1, 0)), "unknown node");
  EXPECT_DEATH(net.send(-2, make_packet(1, 0)), "unknown node");
  EXPECT_DEATH(net.send(0, make_packet(1, 2)), "unknown node");
  EXPECT_DEATH(net.send(0, make_packet(1, -2)), "unknown node");
  CountingHook hook;
  EXPECT_DEATH(net.add_rx_hook(2, &hook), "unknown node");
}

}  // namespace
}  // namespace sg
