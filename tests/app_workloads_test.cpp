// The Table III catalog: structure, depths, threading models.
#include "app/workloads.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace sg {
namespace {

TEST(WorkloadsTest, CatalogHasFiveActions) {
  const auto cat = workload_catalog();
  ASSERT_EQ(cat.size(), 5u);
  EXPECT_EQ(cat[0].family, "CHAIN");
  EXPECT_EQ(cat[1].action, "readUserTimeline");
  EXPECT_EQ(cat[2].action, "composePost");
  EXPECT_EQ(cat[3].action, "searchHotel");
  EXPECT_EQ(cat[4].action, "recommendHotel");
}

TEST(WorkloadsTest, DepthsMatchTableIII) {
  EXPECT_EQ(make_chain().spec.depth(), 5);
  EXPECT_EQ(make_social_read_user_timeline().spec.depth(), 5);
  EXPECT_EQ(make_social_compose_post().spec.depth(), 8);
  EXPECT_EQ(make_hotel_search().spec.depth(), 11);
  EXPECT_EQ(make_hotel_recommend().spec.depth(), 5);
}

TEST(WorkloadsTest, PaperDepthsConsistent) {
  // Table III lists the catalog in the paper's order.
  const std::vector<int> depths = {5, 5, 8, 11, 5};
  const std::vector<WorkloadInfo> catalog = workload_catalog();
  ASSERT_EQ(catalog.size(), depths.size());
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    EXPECT_EQ(catalog[i].spec.depth(), depths[i]) << catalog[i].spec.name;
  }
}

TEST(WorkloadsTest, ThreadingModelsMatchTableIII) {
  // Thrift workloads use fixed pools; gRPC hotel uses conn-per-request.
  EXPECT_EQ(make_chain().spec.threading, ThreadingModel::kFixedThreadPool);
  EXPECT_EQ(make_chain().spec.rpc, RpcStyle::kThrift);
  EXPECT_EQ(make_social_read_user_timeline().spec.threading,
            ThreadingModel::kFixedThreadPool);
  EXPECT_EQ(make_social_compose_post().spec.threading,
            ThreadingModel::kFixedThreadPool);
  EXPECT_EQ(make_hotel_search().spec.threading,
            ThreadingModel::kConnectionPerRequest);
  EXPECT_EQ(make_hotel_search().spec.rpc, RpcStyle::kGrpc);
  EXPECT_EQ(make_hotel_recommend().spec.threading,
            ThreadingModel::kConnectionPerRequest);
}

TEST(WorkloadsTest, HotelPoolsReportedUnbounded) {
  // Table III prints "infinity" for connection-per-request workloads and
  // the pool size for the others.
  EXPECT_EQ(make_hotel_search().spec.threading,
            ThreadingModel::kConnectionPerRequest);
  EXPECT_EQ(make_hotel_recommend().spec.threading,
            ThreadingModel::kConnectionPerRequest);
  EXPECT_EQ(make_chain().spec.threadpool_size, 512);
}

TEST(WorkloadsTest, AllSpecsValidate) {
  for (const auto& w : workload_catalog()) {
    std::string err;
    EXPECT_TRUE(w.spec.validate(&err)) << w.spec.name << ": " << err;
  }
}

TEST(WorkloadsTest, InitialCoresPerService) {
  for (const auto& w : workload_catalog()) {
    EXPECT_EQ(w.initial_cores.size(), w.spec.services.size()) << w.spec.name;
    for (int c : w.initial_cores) EXPECT_GE(c, 1);
    EXPECT_EQ(w.total_initial_cores(),
              std::accumulate(w.initial_cores.begin(), w.initial_cores.end(), 0));
  }
}

TEST(WorkloadsTest, CalibratedNearKnee) {
  // Bottleneck utilization at base rate should sit in the "slightly below
  // the knee" band (paper artifact): between 0.5 and 0.85 for every service.
  for (const auto& w : workload_catalog()) {
    for (std::size_t i = 0; i < w.spec.services.size(); ++i) {
      const double demand =
          w.base_rate_rps * w.spec.services[i].work_ns_mean / 1e9;
      const double util = demand / w.initial_cores[i];
      EXPECT_LT(util, 0.85) << w.spec.name << "/" << w.spec.services[i].name;
      EXPECT_GT(util, 0.1) << w.spec.name << "/" << w.spec.services[i].name;
    }
  }
}

TEST(WorkloadsTest, LookupByNames) {
  EXPECT_EQ(workload_by_name("chain")->family, "CHAIN");
  EXPECT_EQ(workload_by_name("readUserTimeline")->action, "readUserTimeline");
  EXPECT_EQ(workload_by_name("socialNetwork.composePost")->action,
            "composePost");
  EXPECT_EQ(workload_by_name("hotelReservation")->family, "hotelReservation");
  EXPECT_FALSE(workload_by_name("bogus").has_value());
  EXPECT_FALSE(workload_by_name("").has_value());
}

TEST(WorkloadsTest, ChainIsAPureChain) {
  const auto w = make_chain();
  ASSERT_EQ(w.spec.services.size(), 5u);
  for (std::size_t i = 0; i + 1 < w.spec.services.size(); ++i) {
    ASSERT_EQ(w.spec.services[i].children.size(), 1u);
    EXPECT_EQ(w.spec.services[i].children[0], static_cast<int>(i) + 1);
  }
  EXPECT_TRUE(w.spec.services.back().children.empty());
}

TEST(WorkloadsTest, SearchHotelHasParallelFanout) {
  const auto w = make_hotel_search();
  bool has_parallel = false;
  for (const auto& s : w.spec.services) {
    if (s.fanout == FanoutMode::kParallel && s.children.size() > 1) {
      has_parallel = true;
    }
  }
  EXPECT_TRUE(has_parallel);  // search -> {geo, rate} per DeathStarBench
}

}  // namespace
}  // namespace sg
