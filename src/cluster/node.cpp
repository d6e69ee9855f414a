#include "cluster/node.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace sg {

Node::Node(Params params) : params_(params) {
  SG_ASSERT(params_.total_logical_cores > 0);
  SG_ASSERT(params_.reserved_cores >= 0);
  SG_ASSERT(params_.reserved_cores < params_.total_logical_cores);
}

int Node::allocated_cores() const {
  int total = 0;
  for (const Container* c : containers_) total += c->cores();
  return total;
}

int Node::free_cores() const { return app_cores() - allocated_cores(); }

void Node::attach(Container* c) {
  SG_ASSERT(c != nullptr);
  SG_ASSERT_MSG(c->node() == params_.id, "container attached to wrong node");
  SG_ASSERT_MSG(!frozen_, "cannot attach a container to a frozen node");
  containers_.push_back(c);
  if (membw_) c->attach_membw(membw_.get());
  if (slowdown_factor_ < 1.0) c->set_speed_scale(slowdown_factor_);
  SG_ASSERT_MSG(free_cores() >= 0,
                "initial allocations oversubscribe the node");
}

int Node::grant(Container* c, int k) {
  SG_ASSERT(c != nullptr && k >= 0);
  if (frozen_) return 0;
  const int granted = std::min(k, free_cores());
  if (granted > 0) c->set_cores(c->cores() + granted);
  return granted;
}

int Node::revoke(Container* c, int k, int floor) {
  SG_ASSERT(c != nullptr && k >= 0 && floor >= 0);
  if (frozen_) return 0;
  const int revocable = std::max(0, c->cores() - floor);
  const int revoked = std::min(k, revocable);
  if (revoked > 0) c->set_cores(c->cores() - revoked);
  return revoked;
}

void Node::set_slowdown(double factor) {
  SG_ASSERT_MSG(factor > 0.0 && factor <= 1.0,
                "slowdown factor outside (0, 1]");
  slowdown_factor_ = factor;
  for (Container* c : containers_) c->set_speed_scale(factor);
}

void Node::freeze() {
  if (frozen_) return;
  frozen_allocation_.clear();
  frozen_allocation_.reserve(containers_.size());
  for (Container* c : containers_) {
    frozen_allocation_.push_back(c->cores());
    c->set_cores(0);
  }
  // Flag flips after the zeroing so the ledger stays consistent throughout.
  frozen_ = true;
}

void Node::restart() {
  if (!frozen_) return;
  frozen_ = false;
  SG_ASSERT(frozen_allocation_.size() == containers_.size());
  for (std::size_t i = 0; i < containers_.size(); ++i) {
    containers_[i]->set_cores(frozen_allocation_[i]);
  }
  frozen_allocation_.clear();
}

void Node::enable_membw(MemBwDomain::Params params) {
  SG_ASSERT_MSG(membw_ == nullptr, "membw domain already enabled");
  membw_ = std::make_unique<MemBwDomain>(params);
  for (Container* c : containers_) c->attach_membw(membw_.get());
}

}  // namespace sg
