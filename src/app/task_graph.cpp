#include "app/task_graph.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

namespace sg {

const char* to_string(ThreadingModel m) {
  switch (m) {
    case ThreadingModel::kConnectionPerRequest: return "connection-per-request";
    case ThreadingModel::kFixedThreadPool: return "fixed-size threadpool";
  }
  return "?";
}

const char* to_string(RpcStyle s) {
  switch (s) {
    case RpcStyle::kThrift: return "Thrift";
    case RpcStyle::kGrpc: return "gRPC";
  }
  return "?";
}

bool AppSpec::validate(std::string* error) const {
  auto fail = [&](const std::string& msg) {
    if (error) *error = msg;
    return false;
  };
  if (services.empty()) return fail("no services");
  const int n = static_cast<int>(services.size());
  for (int i = 0; i < n; ++i) {
    const ServiceSpec& s = services[static_cast<std::size_t>(i)];
    if (s.name.empty()) return fail("service without a name");
    if (s.work_ns_mean < 0) return fail(s.name + ": negative work");
    for (int c : s.children) {
      if (c < 0 || c >= n) return fail(s.name + ": child index out of range");
      if (c == i) return fail(s.name + ": self edge");
    }
  }
  // Cycle check via DFS colors.
  enum class Color { kWhite, kGray, kBlack };
  std::vector<Color> color(static_cast<std::size_t>(n), Color::kWhite);
  bool cyclic = false;
  std::function<void(int)> dfs = [&](int u) {
    color[static_cast<std::size_t>(u)] = Color::kGray;
    for (int v : services[static_cast<std::size_t>(u)].children) {
      if (color[static_cast<std::size_t>(v)] == Color::kGray) {
        cyclic = true;
        return;
      }
      if (color[static_cast<std::size_t>(v)] == Color::kWhite) dfs(v);
      if (cyclic) return;
    }
    color[static_cast<std::size_t>(u)] = Color::kBlack;
  };
  dfs(0);
  if (cyclic) return fail("task graph has a cycle");
  return true;
}

int AppSpec::depth() const {
  std::function<int(int)> go = [&](int u) -> int {
    int best = 0;
    for (int v : services[static_cast<std::size_t>(u)].children)
      best = std::max(best, go(v));
    return best + 1;
  };
  return services.empty() ? 0 : go(0);
}

double AppSpec::estimate_subtree_latency_ns(int service,
                                            double net_hop_ns) const {
  const ServiceSpec& s = services[static_cast<std::size_t>(service)];
  double child_total = 0.0;
  double child_max = 0.0;
  for (int c : s.children) {
    const double rtt =
        2.0 * net_hop_ns + estimate_subtree_latency_ns(c, net_hop_ns);
    child_total += rtt;
    child_max = std::max(child_max, rtt);
  }
  const double child_time =
      s.fanout == FanoutMode::kParallel ? child_max : child_total;
  return s.work_ns_mean + child_time;
}

std::vector<std::vector<int>> AppSpec::autosize_pools(double rate_rps,
                                                      double net_hop_ns,
                                                      double headroom) {
  pool_sizes.assign(services.size(), {});
  for (std::size_t i = 0; i < services.size(); ++i) {
    const ServiceSpec& s = services[i];
    pool_sizes[i].reserve(s.children.size());
    for (int c : s.children) {
      if (threading == ThreadingModel::kConnectionPerRequest ||
          s.unpooled_children) {
        pool_sizes[i].push_back(-1);  // unbounded
        continue;
      }
      // Little's law (eq. 1): in-flight = rate * downstream RTT. Every
      // end-to-end request traverses each edge once in these graphs, so the
      // edge rate equals the app request rate.
      const double rtt_ns =
          2.0 * net_hop_ns + estimate_subtree_latency_ns(c, net_hop_ns);
      const double in_flight = rate_rps * rtt_ns / 1e9;
      const int size = std::max(2, static_cast<int>(std::ceil(in_flight * headroom)));
      pool_sizes[i].push_back(size);
    }
  }
  return pool_sizes;
}

}  // namespace sg
