#include "app/workloads.hpp"

#include <numeric>

#include "common/assert.hpp"

namespace sg {
namespace {

// Calibrated CPU-cost tiers (ns at one core at the reference frequency).
// "standard" services run ~0.65 utilization with 1 core at 2000 rps,
// "heavy" with 2 cores, and "light" leaf/storage services sit near 0.32 —
// the flat-sensitivity-curve containers of paper Fig. 6.
constexpr double kStd = 325'000.0;
constexpr double kHeavy = 650'000.0;
constexpr double kLight = 160'000.0;

ServiceSpec svc(std::string name, double work, std::vector<int> children = {},
                FanoutMode fanout = FanoutMode::kSequential) {
  ServiceSpec s;
  s.name = std::move(name);
  s.work_ns_mean = work;
  s.work_sigma = 0.15;
  s.children = std::move(children);
  s.fanout = fanout;
  return s;
}

/// HTTP frontend: light work, and its outgoing edges are not Thrift pools
/// (nginx worker connections are effectively unbounded), so the first
/// implicit queue forms one tier down, as in the paper's Fig. 14.
ServiceSpec http_frontend(std::string name, std::vector<int> children) {
  ServiceSpec s = svc(std::move(name), kLight, std::move(children));
  s.unpooled_children = true;
  return s;
}

}  // namespace

int WorkloadInfo::total_initial_cores() const {
  return std::accumulate(initial_cores.begin(), initial_cores.end(), 0);
}

WorkloadInfo make_chain() {
  WorkloadInfo w;
  w.family = "CHAIN";
  w.action = "chain";
  w.base_rate_rps = 10000.0;
  w.spec.name = "CHAIN";
  w.spec.threading = ThreadingModel::kFixedThreadPool;
  w.spec.rpc = RpcStyle::kThrift;
  // Five services, each doing one vector-accumulate-sized chunk of work.
  // 130us at 10k rps needs 1.3 cores -> 2 cores at 0.65 utilization.
  constexpr double kChainWork = 130'000.0;
  w.spec.services = {
      svc("chain-0", kChainWork, {1}), svc("chain-1", kChainWork, {2}),
      svc("chain-2", kChainWork, {3}), svc("chain-3", kChainWork, {4}),
      svc("chain-4", kChainWork),
  };
  w.initial_cores = {2, 2, 2, 2, 2};
  SG_ASSERT(w.spec.validate());
  SG_ASSERT(w.spec.depth() == 5);
  return w;
}

WorkloadInfo make_social_read_user_timeline() {
  WorkloadInfo w;
  w.family = "socialNetwork";
  w.action = "readUserTimeline";
  w.base_rate_rps = 2000.0;
  w.spec.name = "socialNetwork.readUserTimeline";
  w.spec.threading = ThreadingModel::kFixedThreadPool;
  w.spec.rpc = RpcStyle::kThrift;
  // Depth-5 storage chain (nginx -> user-timeline -> post-storage ->
  // memcached -> mongodb, the cache-miss path modeled inline) plus the
  // user-timeline-redis side call. Calibrated for the paper's Fig. 14
  // scenario: the entry tier (nginx) has headroom so surges pass through;
  // user-timeline has moderate CPU headroom but a bindable pool toward the
  // post-storage tier, which is the true bottleneck — so user-timeline
  // holds the implicit queue while post-storage-memcached/mongodb starve
  // under per-container controllers.
  w.spec.services = {
      /*0*/ http_frontend("nginx", {1}),
      /*1*/ svc("user-timeline-service", 450'000.0, {2, 3}),
      /*2*/ svc("user-timeline-redis", kLight),
      /*3*/ svc("post-storage-service", kHeavy, {4}),
      /*4*/ svc("post-storage-memcached", kStd, {5}),
      /*5*/ svc("post-storage-mongodb", kLight),
  };
  w.initial_cores = {1, 2, 1, 2, 1, 1};
  SG_ASSERT(w.spec.validate());
  SG_ASSERT(w.spec.depth() == 5);
  return w;
}

WorkloadInfo make_social_compose_post() {
  WorkloadInfo w;
  w.family = "socialNetwork";
  w.action = "composePost";
  w.base_rate_rps = 2000.0;
  w.spec.name = "socialNetwork.composePost";
  w.spec.threading = ThreadingModel::kFixedThreadPool;
  w.spec.rpc = RpcStyle::kThrift;
  // Depth-8 write path with side services (unique-id, media, url-shorten).
  // As with readUserTimeline, the entry tier has headroom so surges reach
  // the heavy compose/home-timeline tiers.
  w.spec.services = {
      /*0*/ http_frontend("nginx", {1}),
      /*1*/ svc("compose-post-service", kHeavy, {2, 3, 4}),
      /*2*/ svc("unique-id-service", kLight),
      /*3*/ svc("media-service", kLight),
      /*4*/ svc("text-service", kStd, {5, 6}),
      /*5*/ svc("url-shorten-service", kLight),
      /*6*/ svc("user-mention-service", kStd, {7}),
      /*7*/ svc("user-service", kStd, {8}),
      /*8*/ svc("social-graph-service", kStd, {9}),
      /*9*/ svc("home-timeline-service", kHeavy, {10}),
      /*10*/ svc("post-storage-service", kStd),
  };
  // 2000 rps: kStd needs 0.65 cores (1), kHeavy 1.3 (2), kLight 0.32 (1).
  w.initial_cores = {1, 2, 1, 1, 1, 1, 1, 1, 1, 2, 1};
  SG_ASSERT(w.spec.validate());
  SG_ASSERT(w.spec.depth() == 8);
  return w;
}

WorkloadInfo make_hotel_search() {
  WorkloadInfo w;
  w.family = "hotelReservation";
  w.action = "searchHotel";
  w.base_rate_rps = 2000.0;
  w.spec.name = "hotelReservation.searchHotel";
  w.spec.threading = ThreadingModel::kConnectionPerRequest;
  w.spec.rpc = RpcStyle::kGrpc;
  // Depth-11 search path; search fans out to geo and rate in parallel
  // (DeathStarBench topology), then the rate path continues through the
  // reservation/profile/storage tiers.
  w.spec.services = {
      /*0*/ svc("frontend", kStd, {1}),
      /*1*/ svc("search-service", kHeavy, {2, 3}, FanoutMode::kParallel),
      /*2*/ svc("geo-service", kStd),
      /*3*/ svc("rate-service", kStd, {4}),
      /*4*/ svc("reservation-service", kStd, {5}),
      /*5*/ svc("availability-service", kStd, {6}),
      /*6*/ svc("hotel-service", kStd, {7}),
      /*7*/ svc("profile-service", kHeavy, {8}),
      /*8*/ svc("review-service", kStd, {9}),
      /*9*/ svc("review-memcached", kLight, {10}),
      /*10*/ svc("review-mongodb", kLight, {11}),
      /*11*/ svc("storage-service", kLight),
  };
  w.initial_cores = {1, 2, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1};
  SG_ASSERT(w.spec.validate());
  SG_ASSERT(w.spec.depth() == 11);
  return w;
}

WorkloadInfo make_hotel_recommend() {
  WorkloadInfo w;
  w.family = "hotelReservation";
  w.action = "recommendHotel";
  w.base_rate_rps = 2000.0;
  w.spec.name = "hotelReservation.recommendHotel";
  w.spec.threading = ThreadingModel::kConnectionPerRequest;
  w.spec.rpc = RpcStyle::kGrpc;
  w.spec.services = {
      /*0*/ svc("frontend", kStd, {1}),
      /*1*/ svc("recommendation-service", kHeavy, {2}),
      /*2*/ svc("profile-service", kHeavy, {3}),
      /*3*/ svc("profile-memcached", kStd, {4}),
      /*4*/ svc("profile-mongodb", kLight),
  };
  w.initial_cores = {1, 2, 2, 1, 1};
  SG_ASSERT(w.spec.validate());
  SG_ASSERT(w.spec.depth() == 5);
  return w;
}

std::vector<WorkloadInfo> workload_catalog() {
  return {make_chain(), make_social_read_user_timeline(),
          make_social_compose_post(), make_hotel_search(),
          make_hotel_recommend()};
}

std::optional<WorkloadInfo> workload_by_name(std::string_view name) {
  for (WorkloadInfo& w : workload_catalog()) {
    if (name == w.action || name == w.family + "." + w.action ||
        name == w.family) {
      return w;
    }
  }
  return std::nullopt;
}

}  // namespace sg
