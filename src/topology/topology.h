#ifndef M2M_TOPOLOGY_TOPOLOGY_H_
#define M2M_TOPOLOGY_TOPOLOGY_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "geom/point.h"

namespace m2m {

/// One key per undirected link, the same for (a, b) and (b, a): the lower
/// id in the high 32 bits, the higher id in the low 32.
inline uint64_t PackLink(NodeId a, NodeId b) {
  return (static_cast<uint64_t>(std::min(a, b)) << 32) |
         static_cast<uint32_t>(std::max(a, b));
}

/// A fixed-location wireless sensor network: node positions plus a disk
/// connectivity model (two nodes are neighbors iff their distance is at most
/// the radio range). The adjacency structure is built once at construction
/// and is immutable: one flat array of every node's sorted neighbor list,
/// indexed by per-node offsets, so a copy or a mask is two allocations and
/// a node's row is contiguous. Failures are masked copies (WithFailures),
/// the one representation of a degraded graph, whether its links were
/// sampled down for a round, scheduled down or suspected by the base
/// station.
class Topology {
 public:
  /// Builds the connectivity graph. Positions are copied; radio_range_m must
  /// be positive.
  Topology(std::vector<Point> positions, double radio_range_m);

  /// A failure-masked copy of `base`: same nodes, positions and grid order,
  /// minus the given undirected links (either orientation) and every link
  /// incident to a dead node. Node ids are preserved (dead nodes remain
  /// present but isolated), so plans and runtimes indexed by id keep
  /// working across a re-plan.
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
  std::span<const NodeId> neighbors(NodeId n) const;

  /// Offset of `n`'s row in the flat neighbor array: the directed link to
  /// neighbors(n)[i] has index row_begin(n) + i in [0, 2 * link_count()).
  size_t row_begin(NodeId n) const { return row_begin_[n]; }

  bool AreNeighbors(NodeId a, NodeId b) const;

  /// Number of undirected links in the connectivity graph.
  int link_count() const { return static_cast<int>(neighbor_.size() / 2); }

  /// Mean number of neighbors per node.
  double average_degree() const;

  /// True iff the connectivity graph is a single connected component.
  bool IsConnected() const;

  /// Node ids listed by grid cell (row-major cells, ids ascending within a
  /// cell). Cells are radio-range squares, doubled while there are more
  /// than 2n + 16 of them, so every neighbor of a node lies in its 3x3 cell
  /// block: the constructor's neighbor search walks these blocks, and
  /// renumbering in this order keeps a node's neighbors close in memory.
  const std::vector<NodeId>& grid_order() const { return grid_order_; }

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
  /// Node n's neighbors are neighbor_[row_begin_[n], row_begin_[n + 1]).
  std::vector<size_t> row_begin_;
  std::vector<NodeId> neighbor_;
  std::vector<NodeId> grid_order_;
};

/// Connected-component labeling of a topology (pass a WithFailures copy to
/// label a failure-masked graph; its dead nodes are singletons). Components
/// are numbered 0.. in order of their lowest member id, so the labeling is
/// deterministic.
struct ComponentMap {
  std::vector<int> component;  ///< Per node.
  int component_count = 0;

  int ComponentOf(NodeId n) const {
    return component[static_cast<size_t>(n)];
  }
  bool SameComponent(NodeId a, NodeId b) const {
    return ComponentOf(a) == ComponentOf(b);
  }
  /// Members of component `c`, ascending.
  std::vector<NodeId> Members(int c) const;
  /// Size of each component, indexed by component id.
  std::vector<int> Sizes() const;
};

ComponentMap BuildComponents(const Topology& topology);

}  // namespace m2m

#endif  // M2M_TOPOLOGY_TOPOLOGY_H_
