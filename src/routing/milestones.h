#ifndef M2M_ROUTING_MILESTONES_H_
#define M2M_ROUTING_MILESTONES_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "routing/path_system.h"
#include "topology/topology.h"

namespace m2m {

/// Per-link stability scores in [0, 1]: the probability that the link is
/// usable in a given round. Deterministic in (topology, seed); longer links
/// are less stable, mirroring radio behavior near the edge of the range.
class LinkStabilityModel {
 public:
  LinkStabilityModel(const Topology& topology, uint64_t seed);

  LinkStabilityModel(const LinkStabilityModel&) = default;
  LinkStabilityModel& operator=(const LinkStabilityModel&) = default;
  LinkStabilityModel(LinkStabilityModel&&) noexcept = default;
  LinkStabilityModel& operator=(LinkStabilityModel&&) noexcept = default;

  /// Stability of link {a, b}; requires the link to exist.
  double stability(NodeId a, NodeId b) const;

  /// Mean stability over a node's incident links (1.0 for isolated nodes).
  double NodeStability(const Topology& topology, NodeId n) const;

 private:
  std::unordered_map<uint64_t, double> stability_;
};

/// Link-cost function for stability-aware routing (paper section 3:
/// routes and milestones may change "if stability of certain routes have
/// changed significantly"). A link of stability s costs
/// `1 + penalty * (1 - s)`, so Dijkstra trades extra hops for dependable
/// links; penalty 0 reduces to hop-count routing.
PathSystem::LinkCostFn StabilityAwareLinkCost(const LinkStabilityModel& model,
                                              double penalty);

/// Global per-node milestone predicate (paper section 3, "Flexibility
/// Trade-Off in Routing using Milestones"). Sources and destinations of a
/// route are always route endpoints regardless of this predicate; the
/// predicate decides which *intermediate* nodes the plan may rely on as
/// convergence points. Selecting milestones by a global node property keeps
/// the milestone-level path system consistent, so Theorem 1 continues to
/// hold on virtual edges.
class MilestoneSelector {
 public:
  /// Every node is a milestone: optimization on physical one-hop edges.
  static MilestoneSelector All(int node_count);

  /// No intermediate milestones: each route is a single virtual edge from
  /// source to destination (maximal routing flexibility, no in-route
  /// aggregation below the endpoints).
  static MilestoneSelector EndpointsOnly(int node_count);

  /// A node is a milestone iff the mean stability of its incident links is
  /// at least `threshold`.
  static MilestoneSelector StabilityThreshold(const Topology& topology,
                                              const LinkStabilityModel& model,
                                              double threshold);

  bool IsMilestone(NodeId n) const;
  int milestone_count() const;
  int node_count() const { return static_cast<int>(is_milestone_.size()); }

 private:
  explicit MilestoneSelector(std::vector<bool> is_milestone)
      : is_milestone_(std::move(is_milestone)) {}

  std::vector<bool> is_milestone_;
};

}  // namespace m2m

#endif  // M2M_ROUTING_MILESTONES_H_
