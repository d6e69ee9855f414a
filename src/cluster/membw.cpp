#include "cluster/membw.hpp"

#include <algorithm>

#include "cluster/container.hpp"

namespace sg {

double MemBwDomain::current_demand_gbs() const {
  double demand = 0.0;
  for (const Container* c : members_) {
    demand += c->busy_cores() * params_.demand_per_busy_core_gbs;
  }
  return demand;
}

double MemBwDomain::compute_factor() const {
  const double demand = current_demand_gbs();
  if (demand <= params_.node_bw_gbs || demand <= 0.0) return 1.0;
  return params_.node_bw_gbs / demand;
}

void MemBwDomain::on_member_activity_changed() {
  if (resyncing_) return;  // re-entrant notification from a resync itself
  const double next = compute_factor();
  if (std::abs(next - factor_) < kHysteresis &&
      !(next == 1.0 && factor_ != 1.0)) {
    return;
  }
  resyncing_ = true;
  // Order matters: members must bank progress at the OLD factor before the
  // new one takes effect, then re-arm their completion events at the new
  // rate.
  for (Container* c : members_) c->sync();
  factor_ = next;
  for (Container* c : members_) c->notify_rate_changed();
  resyncing_ = false;
}

}  // namespace sg
