#include "app/task_graph.hpp"

#include <gtest/gtest.h>

namespace sg {
namespace {

AppSpec two_service_chain() {
  AppSpec spec;
  spec.name = "t";
  ServiceSpec a;
  a.name = "a";
  a.work_ns_mean = 100;
  a.children = {1};
  ServiceSpec b;
  b.name = "b";
  b.work_ns_mean = 200;
  spec.services = {a, b};
  return spec;
}

TEST(TaskGraphTest, ValidSpecPasses) {
  AppSpec spec = two_service_chain();
  std::string err;
  EXPECT_TRUE(spec.validate(&err)) << err;
}

TEST(TaskGraphTest, EmptySpecFails) {
  AppSpec spec;
  EXPECT_FALSE(spec.validate());
}

TEST(TaskGraphTest, OutOfRangeChildFails) {
  AppSpec spec = two_service_chain();
  spec.services[1].children = {5};
  std::string err;
  EXPECT_FALSE(spec.validate(&err));
  EXPECT_NE(err.find("out of range"), std::string::npos);
}

TEST(TaskGraphTest, SelfEdgeFails) {
  AppSpec spec = two_service_chain();
  spec.services[0].children = {0};
  EXPECT_FALSE(spec.validate());
}

TEST(TaskGraphTest, CycleFails) {
  AppSpec spec = two_service_chain();
  spec.services[1].children = {0};
  std::string err;
  EXPECT_FALSE(spec.validate(&err));
  EXPECT_NE(err.find("cycle"), std::string::npos);
}

TEST(TaskGraphTest, NegativeWorkFails) {
  AppSpec spec = two_service_chain();
  spec.services[0].work_ns_mean = -1;
  EXPECT_FALSE(spec.validate());
}

TEST(TaskGraphTest, DepthOfChain) {
  AppSpec spec = two_service_chain();
  EXPECT_EQ(spec.depth(), 2);
}

TEST(TaskGraphTest, DepthOfTreeIsLongestPath) {
  AppSpec spec;
  spec.name = "tree";
  ServiceSpec root, left, mid, deep;
  root.name = "root";
  root.children = {1, 2};
  left.name = "left";
  mid.name = "mid";
  mid.children = {3};
  deep.name = "deep";
  spec.services = {root, left, mid, deep};
  EXPECT_EQ(spec.depth(), 3);
}

TEST(TaskGraphTest, ZeroLoadLatencyEstimate) {
  AppSpec spec = two_service_chain();
  // root subtree = workA + (2 hops + workB)
  const double hop = 1000.0;
  EXPECT_DOUBLE_EQ(spec.estimate_subtree_latency_ns(0, hop),
                   100 + 2 * hop + 200);
}

TEST(TaskGraphTest, ParallelFanoutUsesMaxChild) {
  AppSpec spec;
  ServiceSpec root, s1, s2;
  root.name = "r";
  root.work_ns_mean = 0;
  root.children = {1, 2};
  root.fanout = FanoutMode::kParallel;
  s1.name = "s1";
  s1.work_ns_mean = 100;
  s2.name = "s2";
  s2.work_ns_mean = 900;
  spec.services = {root, s1, s2};
  // parallel: max(2h+100, 2h+900) = 2h+900; sequential would be 4h+1000.
  EXPECT_DOUBLE_EQ(spec.estimate_subtree_latency_ns(0, 50.0), 2 * 50 + 900);
  spec.services[0].fanout = FanoutMode::kSequential;
  EXPECT_DOUBLE_EQ(spec.estimate_subtree_latency_ns(0, 50.0), 4 * 50 + 1000);
}

TEST(TaskGraphTest, AutosizePoolsLittlesLaw) {
  AppSpec spec = two_service_chain();
  spec.threading = ThreadingModel::kFixedThreadPool;
  // Edge a->b RTT at zero load = 2*hop + 200ns. rate in rps.
  const auto pools = spec.autosize_pools(1e6, 400.0, 1.0);
  ASSERT_EQ(pools.size(), 2u);
  ASSERT_EQ(pools[0].size(), 1u);
  // in-flight = 1e6/s * (800+200)ns = 1e-3 -> max(2, ceil(...)) = 2 floor.
  EXPECT_EQ(pools[0][0], 2);

  const auto pools2 = spec.autosize_pools(10e6, 400.0, 1.0);
  // in-flight = 10e6 * 1000ns = 10.
  EXPECT_EQ(pools2[0][0], 10);
}

TEST(TaskGraphTest, AutosizeHeadroomScales) {
  AppSpec spec = two_service_chain();
  spec.threading = ThreadingModel::kFixedThreadPool;
  const auto a = spec.autosize_pools(10e6, 400.0, 1.0);
  const auto b = spec.autosize_pools(10e6, 400.0, 2.0);
  EXPECT_EQ(b[0][0], 2 * a[0][0]);
}

TEST(TaskGraphTest, ConnectionPerRequestPoolsUnbounded) {
  AppSpec spec = two_service_chain();
  spec.threading = ThreadingModel::kConnectionPerRequest;
  const auto pools = spec.autosize_pools(1e6, 400.0);
  EXPECT_EQ(pools[0][0], -1);
}

TEST(TaskGraphTest, ToStringNames) {
  EXPECT_STREQ(to_string(ThreadingModel::kFixedThreadPool),
               "fixed-size threadpool");
  EXPECT_STREQ(to_string(ThreadingModel::kConnectionPerRequest),
               "connection-per-request");
  EXPECT_STREQ(to_string(RpcStyle::kThrift), "Thrift");
  EXPECT_STREQ(to_string(RpcStyle::kGrpc), "gRPC");
}

}  // namespace
}  // namespace sg
