#ifndef M2M_ROUTING_MULTICAST_H_
#define M2M_ROUTING_MULTICAST_H_

#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/relation.h"
#include "routing/milestones.h"
#include "routing/path_system.h"

namespace m2m {

/// One directed edge of the multicast forest. With the default "all nodes
/// are milestones" selector this is a physical one-hop edge; with sparser
/// milestone selectors it is a virtual edge whose `segment` is the underlying
/// physical path.
struct ForestEdge {
  DirectedEdge edge;            ///< tail -> head at milestone level.
  std::vector<NodeId> segment;  ///< physical path, tail..head inclusive.
  /// All (source, destination) pairs routed through this edge, i.e. the
  /// relation ~e of the single-edge optimization problem. Deduplicated,
  /// sorted by (source, destination).
  std::vector<SourceDestPair> pairs;

  int hop_length() const { return static_cast<int>(segment.size()) - 1; }
};

/// The set of multicast trees for a many-to-many aggregation workload: one
/// tree per source, rooted at the source and spanning all its destinations,
/// built as the union of the canonical paths of a consistent PathSystem.
/// By construction the trees satisfy the paper's minimality and path-sharing
/// restrictions (checked at build time).
class MulticastForest {
 public:
  /// Builds trees for all tasks. `milestones == nullptr` means every node is
  /// a milestone (optimize on physical one-hop edges).
  MulticastForest(const PathSystem& paths, std::vector<Task> tasks,
                  const MilestoneSelector* milestones = nullptr);

  MulticastForest(const MulticastForest&) = default;
  MulticastForest& operator=(const MulticastForest&) = default;
  MulticastForest(MulticastForest&&) noexcept = default;
  MulticastForest& operator=(MulticastForest&&) noexcept = default;

  const std::vector<Task>& tasks() const { return tasks_; }
  const std::vector<ForestEdge>& edges() const { return edges_; }

  /// Number of nodes in the underlying topology.
  int node_count() const { return node_count_; }

  /// Index of the milestone-level directed edge, or -1 if absent.
  int EdgeIndexOf(DirectedEdge e) const;

  /// Edge indices of the route source -> destination, in path order.
  /// Empty when source == destination. Requires the pair to be in the
  /// relation.
  const std::vector<int>& Route(SourceDestPair pair) const;

  /// Edge indices of the multicast tree rooted at `source` (sources with no
  /// remote destinations have empty trees).
  const std::vector<int>& TreeEdges(NodeId source) const;

  /// Distinct sources with at least one task using them, ascending.
  const std::vector<NodeId>& source_ids() const { return source_ids_; }
  /// Destinations (one per task), ascending.
  const std::vector<NodeId>& destination_ids() const {
    return destination_ids_;
  }

  /// |T_s|: physical node count of the multicast tree rooted at `source`
  /// (counting the source itself; 1 when the tree is empty). Theorem 3.
  int MulticastTreeSize(NodeId source) const;

  /// |A_d|: physical node count of the aggregation tree of destination `d`
  /// (union of its sources' routes). Theorem 3.
  int AggregationTreeSize(NodeId destination) const;

  /// Sum over forest edges of their physical hop length; the per-unit-size
  /// floor of any plan's transmission count.
  int64_t TotalPhysicalHops() const;

  /// Verifies every multicast-tree leaf is a destination of its tree's
  /// source (paper restriction 1).
  bool CheckMinimality() const;

  /// Verifies overlapping routes use identical paths (paper restriction 2):
  /// all routes crossing a milestone edge traverse the same physical
  /// segment, and each tree is a tree (unique parent per node).
  bool CheckSharing() const;

 private:
  int GetOrCreateEdge(const PathSystem& paths, NodeId tail, NodeId head);

  std::vector<Task> tasks_;
  std::vector<ForestEdge> edges_;
  std::unordered_map<DirectedEdge, int, DirectedEdgeHash> edge_index_;
  std::unordered_map<SourceDestPair, std::vector<int>, SourceDestPairHash>
      routes_;
  std::unordered_map<NodeId, std::vector<int>> tree_edges_;
  std::vector<NodeId> source_ids_;
  std::vector<NodeId> destination_ids_;
  std::vector<int> empty_route_;
  int node_count_ = 0;
};

}  // namespace m2m

#endif  // M2M_ROUTING_MULTICAST_H_
