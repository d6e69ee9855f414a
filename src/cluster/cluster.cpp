#include "cluster/cluster.hpp"

#include "common/assert.hpp"

namespace sg {

NodeId Cluster::add_node(int total_logical_cores, int reserved_cores) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::make_unique<Node>(
      Node::Params{id, total_logical_cores, reserved_cores}));
  return id;
}

Container& Cluster::add_container(const std::string& name, NodeId node_id,
                                  int initial_cores) {
  for (const auto& c : containers_) {
    SG_ASSERT_MSG(c->name() != name, "duplicate container name");
  }
  SG_ASSERT(node_id >= 0 && static_cast<std::size_t>(node_id) < nodes_.size());
  const ContainerId id = static_cast<ContainerId>(containers_.size());
  Container::Params params;
  params.name = name;
  params.id = id;
  params.node = node_id;
  params.initial_cores = initial_cores;
  containers_.push_back(std::make_unique<Container>(sim_, std::move(params)));
  Container* c = containers_.back().get();
  nodes_[static_cast<std::size_t>(node_id)]->attach(c);
  return *c;
}

Node& Cluster::node(NodeId id) {
  SG_ASSERT(id >= 0 && static_cast<std::size_t>(id) < nodes_.size());
  return *nodes_[static_cast<std::size_t>(id)];
}

const Node& Cluster::node(NodeId id) const {
  SG_ASSERT(id >= 0 && static_cast<std::size_t>(id) < nodes_.size());
  return *nodes_[static_cast<std::size_t>(id)];
}

Container& Cluster::container(ContainerId id) {
  SG_ASSERT(id >= 0 && static_cast<std::size_t>(id) < containers_.size());
  return *containers_[static_cast<std::size_t>(id)];
}

const Container& Cluster::container(ContainerId id) const {
  SG_ASSERT(id >= 0 && static_cast<std::size_t>(id) < containers_.size());
  return *containers_[static_cast<std::size_t>(id)];
}

void Cluster::sync_all() {
  for (auto& c : containers_) c->sync();
}

double Cluster::total_energy_joules() const {
  double total = 0.0;
  for (const auto& c : containers_) total += c->energy_joules();
  return total;
}

double Cluster::average_allocated_cores(TimePoint t0, TimePoint t1) const {
  double total = 0.0;
  for (const auto& c : containers_)
    total += c->core_timeline().average(t0, t1);
  return total;
}

}  // namespace sg
