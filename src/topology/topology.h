#ifndef M2M_TOPOLOGY_TOPOLOGY_H_
#define M2M_TOPOLOGY_TOPOLOGY_H_

#include <utility>
#include <vector>

#include "common/ids.h"
#include "geom/point.h"

namespace m2m {

/// A fixed-location wireless sensor network: node positions plus a disk
/// connectivity model (two nodes are neighbors iff their distance is at most
/// the radio range). The adjacency structure is built once at construction
/// and is immutable; dynamic link behavior (transient failures) is modeled at
/// the simulation layer.
class Topology {
 public:
  /// Builds the connectivity graph. Positions are copied; radio_range_m must
  /// be positive.
  Topology(std::vector<Point> positions, double radio_range_m);

  /// A failure-masked copy of `base`: same nodes and positions, minus the
  /// given undirected links and every link incident to a dead node. Node
  /// ids are preserved (dead nodes remain present but isolated), so plans
  /// and runtimes indexed by id keep working across a re-plan.
  static Topology WithFailures(
      const Topology& base,
      const std::vector<std::pair<NodeId, NodeId>>& failed_links,
      const std::vector<NodeId>& dead_nodes);

  Topology(const Topology&) = default;
  Topology& operator=(const Topology&) = default;
  Topology(Topology&&) noexcept = default;
  Topology& operator=(Topology&&) noexcept = default;

  int node_count() const { return static_cast<int>(positions_.size()); }
  double radio_range_m() const { return radio_range_m_; }
  const Point& position(NodeId n) const;
  const std::vector<Point>& positions() const { return positions_; }

  /// Neighbors of `n`, sorted by id.
  const std::vector<NodeId>& neighbors(NodeId n) const;

  bool AreNeighbors(NodeId a, NodeId b) const;

  /// Number of undirected links in the connectivity graph.
  int link_count() const { return link_count_; }

  /// Mean number of neighbors per node.
  double average_degree() const;

  /// True iff the connectivity graph is a single connected component.
  bool IsConnected() const;

  /// Hop distances from `origin` to every node via BFS; unreachable nodes get
  /// -1.
  std::vector<int> HopDistancesFrom(NodeId origin) const;

  /// All nodes whose hop distance from `origin` is exactly `hops`.
  std::vector<NodeId> NodesAtHopDistance(NodeId origin, int hops) const;

 private:
  Topology() = default;  // For WithFailures, which fills the fields itself.

  void CheckNode(NodeId n) const;

  std::vector<Point> positions_;
  double radio_range_m_;
  std::vector<std::vector<NodeId>> adjacency_;
  int link_count_ = 0;
};

}  // namespace m2m

#endif  // M2M_TOPOLOGY_TOPOLOGY_H_
