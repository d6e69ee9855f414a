// Table III: details of the evaluated workloads.
//
// Prints the paper's catalog columns (action, task-graph depth, RPC
// framework, threadpool size) plus the simulator's calibration columns
// (base rate, initial cores, Little's-law pool sizes actually provisioned).
// It runs nothing, so it lists no cells.
#include "figure.hpp"

#include "net/network.hpp"

namespace sg::bench {
namespace {

std::vector<GridCell> cells(const BenchArgs&) { return {}; }

void print(const BenchArgs&, const Results&, Tables& out) {
  print_banner("Table III - evaluated workloads");

  TablePrinter table({"Workload", "Action", "Task-graph Depth", "RPC",
                      "Threadpool Size", "base rate (rps)", "init cores",
                      "sim pool sizes"});
  // Pools are provisioned exactly as the experiment harness does on one
  // node: one same-node hop per RPC.
  const double hop_ns =
      static_cast<double>(NetworkLatencyModel{}.same_node.ns());
  for (const WorkloadInfo& w : workload_catalog()) {
    AppSpec spec = w.spec;
    const auto pools = spec.autosize_pools(w.base_rate_rps, hop_ns);
    std::string pool_str;
    for (const auto& per_svc : pools) {
      for (int p : per_svc) {
        if (!pool_str.empty()) pool_str += ",";
        pool_str += (p < 0 ? std::string("inf") : std::to_string(p));
      }
    }
    const std::string paper_pool =
        w.spec.threading == ThreadingModel::kFixedThreadPool
            ? std::to_string(w.spec.threadpool_size)
            : "infinity";
    table.add_row({w.family, w.action == "chain" ? "-" : w.action,
                   std::to_string(w.spec.depth()), to_string(w.spec.rpc),
                   paper_pool, fmt_double(w.base_rate_rps, 0),
                   std::to_string(w.total_initial_cores()), pool_str});
  }
  out.print(table);
  std::printf(
      "\nNote: the paper deploys 512-entry pools at testbed rates; the\n"
      "simulator provisions pools with Little's law (eq. 1) at its\n"
      "calibrated rates, preserving when pools bind (surges) vs not (base).\n");
}

}  // namespace

Figure table3_workloads() { return {"table3_workloads", cells, print}; }

}  // namespace sg::bench
