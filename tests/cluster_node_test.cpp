#include "cluster/node.hpp"

#include <gtest/gtest.h>

#include "cluster/cluster.hpp"

namespace sg {
namespace {

TEST(NodeTest, AppCoresExcludeReserved) {
  Node n(Node::Params{0, 64, 19});
  EXPECT_EQ(n.app_cores(), 45);
  EXPECT_EQ(n.free_cores(), 45);
  EXPECT_EQ(n.allocated_cores(), 0);
}

TEST(NodeTest, AttachDebitsPool) {
  Simulator sim;
  Cluster cluster(sim);
  cluster.add_node(32, 19);  // 13 app cores
  cluster.add_container("a", 0, 4);
  cluster.add_container("b", 0, 6);
  EXPECT_EQ(cluster.node(0).allocated_cores(), 10);
  EXPECT_EQ(cluster.node(0).free_cores(), 3);
}

TEST(NodeTest, GrantBoundedByPool) {
  Simulator sim;
  Cluster cluster(sim);
  cluster.add_node(32, 19);
  Container& c = cluster.add_container("a", 0, 10);
  Node& n = cluster.node(0);
  EXPECT_EQ(n.free_cores(), 3);
  EXPECT_EQ(n.grant(&c, 2), 2);
  EXPECT_EQ(c.cores(), 12);
  EXPECT_EQ(n.grant(&c, 5), 1);  // only 1 left
  EXPECT_EQ(c.cores(), 13);
  EXPECT_EQ(n.grant(&c, 5), 0);
  EXPECT_EQ(n.free_cores(), 0);
}

TEST(NodeTest, RevokeRespectsFloor) {
  Simulator sim;
  Cluster cluster(sim);
  cluster.add_node(32, 19);
  Container& c = cluster.add_container("a", 0, 4);
  Node& n = cluster.node(0);
  EXPECT_EQ(n.revoke(&c, 2, /*floor=*/1), 2);
  EXPECT_EQ(c.cores(), 2);
  EXPECT_EQ(n.revoke(&c, 5, /*floor=*/1), 1);  // floor stops at 1
  EXPECT_EQ(c.cores(), 1);
  EXPECT_EQ(n.revoke(&c, 5, /*floor=*/1), 0);
  EXPECT_EQ(n.free_cores(), 13 - 1);
}

TEST(NodeTest, LedgerConservedAcrossOps) {
  Simulator sim;
  Cluster cluster(sim);
  cluster.add_node(64, 19);
  Container& a = cluster.add_container("a", 0, 8);
  Container& b = cluster.add_container("b", 0, 8);
  Node& n = cluster.node(0);
  const int total = n.app_cores();
  for (int i = 0; i < 20; ++i) {
    n.grant(&a, 3);
    n.revoke(&b, 1);
    n.grant(&b, 2);
    n.revoke(&a, 2);
    ASSERT_EQ(n.allocated_cores() + n.free_cores(), total);
    ASSERT_GE(n.free_cores(), 0);
  }
}

TEST(ClusterTest, LookupByNameAndId) {
  Simulator sim;
  Cluster cluster(sim);
  cluster.add_node();
  Container& a = cluster.add_container("svc/a", 0, 2);
  EXPECT_EQ(&cluster.container(a.id()), &a);
  EXPECT_EQ(cluster.container(a.id()).name(), "svc/a");
  EXPECT_EQ(cluster.container_count(), 1u);
}

TEST(ClusterTest, MultiNodePlacement) {
  Simulator sim;
  Cluster cluster(sim);
  const NodeId n0 = cluster.add_node();
  const NodeId n1 = cluster.add_node();
  Container& a = cluster.add_container("a", n0, 2);
  Container& b = cluster.add_container("b", n1, 3);
  EXPECT_EQ(a.node(), n0);
  EXPECT_EQ(b.node(), n1);
  EXPECT_EQ(cluster.node(n0).containers().size(), 1u);
  EXPECT_EQ(cluster.node(n1).containers().size(), 1u);
  EXPECT_EQ(cluster.node_count(), 2u);
}

TEST(ClusterTest, AverageAllocatedAcrossCluster) {
  Simulator sim;
  Cluster cluster(sim);
  cluster.add_node();
  cluster.add_node();
  cluster.add_container("a", 0, 4);
  cluster.add_container("b", 1, 6);
  sim.run_until(TimePoint{100});
  EXPECT_DOUBLE_EQ(
      cluster.average_allocated_cores(TimePoint::origin(), TimePoint{100}),
      10.0);
}

}  // namespace
}  // namespace sg
