#ifndef M2M_ROUTING_MULTICAST_H_
#define M2M_ROUTING_MULTICAST_H_

#include <memory>
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
  /// a milestone (optimize on physical one-hop edges). This is the update
  /// below, applied to the empty forest.
  MulticastForest(const PathSystem& paths, std::vector<Task> tasks,
                  const MilestoneSelector* milestones = nullptr);

  /// Updates `previous` to `tasks` (Corollary 1, forest form): a pair in
  /// both task lists keeps its route and its edges' segments without a new
  /// path walk, removed pairs leave their edges' `pairs` (an edge left with
  /// none is dropped), and added pairs are walked as in a full build. Edges
  /// are then renumbered in full-build order (docs/THEORY.md §17), so the
  /// result equals `MulticastForest(paths, tasks)` field for field.
  /// Requires `previous.RoutesOver(paths)` unless `previous` has no tasks.
  MulticastForest(const MulticastForest& previous, const PathSystem& paths,
                  std::vector<Task> tasks);

  MulticastForest(const MulticastForest&) = default;
  MulticastForest& operator=(const MulticastForest&) = default;
  MulticastForest(MulticastForest&&) noexcept = default;
  MulticastForest& operator=(MulticastForest&&) noexcept = default;

  const std::vector<Task>& tasks() const { return tasks_; }
  const std::vector<ForestEdge>& edges() const { return edges_; }

  /// Number of nodes in the underlying topology.
  int node_count() const { return node_count_; }

  /// True iff this forest was built over the routing of `paths` (copies of
  /// one PathSystem share it) with every node a milestone, so its routes
  /// are the ones `paths` gives and an update may keep them.
  bool RoutesOver(const PathSystem& paths) const;

  /// Index of the milestone-level directed edge, or -1 if absent.
  int EdgeIndexOf(DirectedEdge e) const;

  /// One edge's key and its index in edges().
  struct KeyedEdge {
    DirectedEdge key;
    int index = -1;
  };
  /// Every edge, ascending by key: lets two forests' edge sets be merged
  /// in one linear pass (ForEachEdgeKey).
  const std::vector<KeyedEdge>& edges_by_key() const { return edges_by_key_; }

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

  /// Paper restriction 2 at run time: (a) each tree is a tree (unique
  /// parent per node, none for the source), which is checked; (b) all
  /// routes crossing a milestone edge traverse the same physical segment,
  /// which holds by construction (one ForestEdge per (tail, head) key) and
  /// is not checked.
  bool CheckSharing() const;

 private:
  MulticastForest() = default;

  /// The one build path: derives this forest (tasks_ already set) from
  /// `previous`, walking only the pairs `previous` does not route.
  void UpdateFrom(const MulticastForest& previous, const PathSystem& paths,
                  const MilestoneSelector* milestones);

  std::vector<Task> tasks_;
  std::vector<ForestEdge> edges_;
  std::vector<KeyedEdge> edges_by_key_;
  std::unordered_map<SourceDestPair, std::vector<int>, SourceDestPairHash>
      routes_;
  std::unordered_map<NodeId, std::vector<int>> tree_edges_;
  std::vector<NodeId> source_ids_;
  std::vector<NodeId> destination_ids_;
  std::vector<int> empty_route_;
  int node_count_ = 0;
  /// Identity of the routing graph the routes were walked over, and
  /// whether a milestone selector thinned them (see RoutesOver).
  std::weak_ptr<const void> routing_;
  bool milestone_level_ = false;
};

/// Visits every edge key of `a` or `b` once, in ascending key order, as
/// `visit(key, a_index, b_index)`; the index is -1 on the side that lacks
/// the key. Linear in the two edge counts.
template <typename Visit>
void ForEachEdgeKey(const MulticastForest& a, const MulticastForest& b,
                    Visit&& visit) {
  const auto& ak = a.edges_by_key();
  const auto& bk = b.edges_by_key();
  size_t i = 0;
  size_t j = 0;
  while (i < ak.size() || j < bk.size()) {
    if (j == bk.size() || (i < ak.size() && ak[i].key < bk[j].key)) {
      visit(ak[i].key, ak[i].index, -1);
      ++i;
    } else if (i == ak.size() || bk[j].key < ak[i].key) {
      visit(bk[j].key, -1, bk[j].index);
      ++j;
    } else {
      visit(ak[i].key, ak[i].index, bk[j].index);
      ++i;
      ++j;
    }
  }
}

}  // namespace m2m

#endif  // M2M_ROUTING_MULTICAST_H_
