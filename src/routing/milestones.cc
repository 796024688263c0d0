#include "routing/milestones.h"

#include <algorithm>

#include "common/check.h"
#include "common/rng.h"

namespace m2m {

LinkStabilityModel::LinkStabilityModel(const Topology& topology,
                                       uint64_t seed) {
  const double range = topology.radio_range_m();
  for (NodeId a = 0; a < topology.node_count(); ++a) {
    for (NodeId b : topology.neighbors(a)) {
      if (b < a) continue;
      double frac = Distance(topology.position(a), topology.position(b)) /
                    range;  // in [0, 1]
      // Transient failures are occasional: close links ~0.99, links at the
      // edge of the radio range ~0.75, plus +-0.05 jitter.
      double base = 0.995 - 0.25 * frac;
      uint64_t h = SplitMix64(seed ^ PackLink(a, b));
      double jitter =
          (static_cast<double>(h >> 11) * 0x1.0p-53 - 0.5) * 0.1;
      stability_[PackLink(a, b)] = std::clamp(base + jitter, 0.5, 0.999);
    }
  }
}

double LinkStabilityModel::stability(NodeId a, NodeId b) const {
  auto it = stability_.find(PackLink(a, b));
  M2M_CHECK(it != stability_.end())
      << "no link between " << a << " and " << b;
  return it->second;
}

double LinkStabilityModel::NodeStability(const Topology& topology,
                                         NodeId n) const {
  const auto& neighbors = topology.neighbors(n);
  if (neighbors.empty()) return 1.0;
  double total = 0.0;
  for (NodeId m : neighbors) total += stability(n, m);
  return total / static_cast<double>(neighbors.size());
}

PathSystem::LinkCostFn StabilityAwareLinkCost(const LinkStabilityModel& model,
                                              double penalty) {
  M2M_CHECK_GE(penalty, 0.0);
  return [&model, penalty](NodeId a, NodeId b) {
    return 1.0 + penalty * (1.0 - model.stability(a, b));
  };
}

MilestoneSelector MilestoneSelector::All(int node_count) {
  M2M_CHECK_GT(node_count, 0);
  return MilestoneSelector(std::vector<bool>(node_count, true));
}

MilestoneSelector MilestoneSelector::EndpointsOnly(int node_count) {
  M2M_CHECK_GT(node_count, 0);
  return MilestoneSelector(std::vector<bool>(node_count, false));
}

MilestoneSelector MilestoneSelector::StabilityThreshold(
    const Topology& topology, const LinkStabilityModel& model,
    double threshold) {
  std::vector<bool> is_milestone(topology.node_count());
  for (NodeId n = 0; n < topology.node_count(); ++n) {
    is_milestone[n] = model.NodeStability(topology, n) >= threshold;
  }
  return MilestoneSelector(std::move(is_milestone));
}

bool MilestoneSelector::IsMilestone(NodeId n) const {
  M2M_CHECK(n >= 0 && n < node_count());
  return is_milestone_[n];
}

int MilestoneSelector::milestone_count() const {
  return static_cast<int>(
      std::count(is_milestone_.begin(), is_milestone_.end(), true));
}

}  // namespace m2m
