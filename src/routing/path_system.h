#ifndef M2M_ROUTING_PATH_SYSTEM_H_
#define M2M_ROUTING_PATH_SYSTEM_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/ids.h"
#include "topology/topology.h"

namespace m2m {

/// A *consistent* all-pairs path system over a topology.
///
/// The paper (section 2.1) requires multicast trees to satisfy (1) minimality
/// and (2) path sharing: whenever node i can reach node j in two multicast
/// trees, the two i->j paths are identical. We guarantee both by
/// construction: every undirected link gets weight `2^40 + epsilon` where
/// epsilon is a deterministic pseudo-random perturbation in [1, 2^27), making
/// all-pairs shortest paths unique with overwhelming probability. Unique
/// shortest paths are closed under subpaths, so the canonical path family
/// {P(u,v)} is consistent: if x lies on P(u,v) then P(u,v) = P(u,x) +
/// P(x,v). Multicast trees built as unions of canonical paths from a common
/// source therefore (a) are trees, and (b) satisfy the path-sharing
/// restriction across trees. Hop count stays the primary routing metric: the
/// perturbation sum along any simple path is below one hop's base weight.
///
/// Storage is lazy and per-target: a dense all-pairs matrix is O(n^2)
/// (~120 GB of next-hop/weight state at 100k nodes), but every consumer only
/// ever routes toward a small set of targets (task destinations, milestone
/// heads, the base station). Each target's shortest-path tree ("column") is
/// materialized on first use and cached. Columns are immutable once built
/// and computed by the same deterministic relaxation regardless of build
/// order or thread, so laziness is unobservable: every query answers exactly
/// as the eager all-pairs construction would.
///
/// Columns are built over an immutable graph made once per topology and
/// shared by copies: a CSR adjacency whose nodes are renumbered in the
/// topology's grid order (Topology::grid_order, so neighbors sit in nearby
/// rows), with each link's epsilon stored in its entries. That costs 8
/// bytes per directed link plus 12 per node. A column costs O(n + m) under
/// the default cost, a layered hop sweep (a fewest-hop path is always the
/// lightest, see THEORY §1), and O(m log n) under a custom cost, a heap
/// Dijkstra over the same arrays. The renumbering stays internal; every id
/// in and out is the topology's.
///
/// Traffic *leaving* a fixed node stays within that small set too: link
/// weights are symmetric and paths unique, so P(u, v) is P(v, u) reversed,
/// and root's own column holds every root -> v route read backwards
/// (NextHopAlong). The base station's downlink therefore costs the same
/// single column as its uplink.
class PathSystem {
 public:
  /// Relative cost of using a link (>= 1.0); hop count times this is the
  /// primary routing metric. The default (null) costs every link 1.0,
  /// making paths hop-count shortest.
  using LinkCostFn = std::function<double(NodeId, NodeId)>;

  /// Defines the path system: builds the shared graph but no column yet
  /// (each target costs one column build on first use, or in Materialize).
  /// `perturbation_seed` feeds the per-link epsilon values. A non-null
  /// `link_cost` biases routing (e.g. away from unstable links); paths then
  /// minimize summed link cost instead of pure hop count, and HopDistance
  /// reports the integer cost of the chosen route.
  explicit PathSystem(const Topology& topology,
                      uint64_t perturbation_seed = 0x5eed,
                      const LinkCostFn& link_cost = nullptr);

  /// Copies share the graph and already-materialized columns (both are
  /// immutable).
  PathSystem(const PathSystem& other);
  PathSystem& operator=(const PathSystem& other);

  int node_count() const { return node_count_; }

  /// Identity of this path system's routing: copies share it, and two path
  /// systems with the same identity answer every query alike.
  std::weak_ptr<const void> routing_identity() const { return graph_; }

  /// Integer route cost of the canonical path u -> v (equals the hop count
  /// under the default link cost); 0 when u == v. For physical hop counts
  /// under custom costs, use Path(u, v).size() - 1.
  int HopDistance(NodeId u, NodeId v) const;

  /// Perturbed path weight (primary: hops; tiebreaker: epsilon sum).
  int64_t PathWeight(NodeId u, NodeId v) const;

  /// First hop on the canonical path u -> v. Requires u != v and v reachable.
  NodeId NextHop(NodeId u, NodeId v) const;

  /// True when NextHop(u, v) is v without consulting v's column: under the
  /// default link cost the direct link (one hop base weight plus epsilon)
  /// strictly beats any detour (at least two hop base weights), so
  /// adjacency alone decides the hop.
  bool IsDirectHop(NodeId u, NodeId v) const;

  /// First hop u -> v read from `root`'s column alone: walks v's canonical
  /// path toward `root` and returns the node just before u on it. When u
  /// lies on P(v, root) that node is NextHop(u, v) (path sharing plus
  /// symmetric weights), so routing root -> v messages hop by hop costs one
  /// column instead of one per v. Returns kInvalidNode when u is not on
  /// that path (including u == v) or v is unreachable from root.
  NodeId NextHopAlong(NodeId root, NodeId u, NodeId v) const;

  /// Full canonical path u -> v, inclusive of both endpoints.
  std::vector<NodeId> Path(NodeId u, NodeId v) const;

  /// Maximum hop distance from u to any node.
  int Eccentricity(NodeId u) const;

  /// Verifies the consistency property on all subpaths of P(u, v); used by
  /// tests and by debug validation of multicast construction.
  bool PathIsConsistent(NodeId u, NodeId v) const;

  /// Builds the columns of `targets` (distinct ids) through ParallelFor;
  /// already-built ones are kept. Columns do not depend on build order or
  /// thread, so every later query answers as if they were built lazily.
  void Materialize(const std::vector<NodeId>& targets) const;

  /// Number of target columns built so far (the column-build work count).
  int materialized_column_count() const;

 private:
  /// Shortest-path state toward one target t: weight[u] is the perturbed
  /// path weight u -> t, next_hop[u] the first hop on the canonical path
  /// u -> t (t at u == t, kInvalidNode when unreachable).
  struct Column {
    std::vector<int64_t> weight;
    std::vector<NodeId> next_hop;
  };

  /// The routing graph in internal ids (see the class comment). Row i of
  /// the CSR is internal node i's neighbors, ascending; epsilon[e] is the
  /// perturbation of entry e's link.
  struct Graph {
    std::vector<uint32_t> row_begin;  ///< n + 1 offsets into the entries.
    std::vector<int32_t> neighbor;
    std::vector<uint32_t> epsilon;
    std::vector<NodeId> original;   ///< internal id -> topology id.
    std::vector<int32_t> internal;  ///< topology id -> internal id.
  };

  void CheckNode(NodeId n) const;
  /// Returns target t's column, materializing it on first use. Thread-safe:
  /// concurrent builders race to publish, but both compute the identical
  /// column, so the loser's copy is just discarded.
  const Column& ColumnFor(NodeId t) const;
  Column BuildColumn(NodeId t) const;
  /// Default-cost column: relaxes one hop layer at a time. Returns false
  /// (leaving dist unfinished) when a layer gets too deep for epsilon sums
  /// to stay below one hop's base weight.
  bool LayeredSweep(int32_t target, std::vector<int64_t>& dist,
                    std::vector<int32_t>& parent) const;
  /// Heap Dijkstra over the graph, popping equal weights in topology-id
  /// order; required for custom costs.
  void HeapSweep(int32_t target, std::vector<int64_t>& dist,
                 std::vector<int32_t>& parent) const;
  /// Path weight u -> v read through whichever endpoint's column is already
  /// materialized (link weights are symmetric, so both agree exactly),
  /// building u's column when neither is.
  int64_t SymmetricWeight(NodeId u, NodeId v) const;

  int node_count_ = 0;
  std::shared_ptr<const Graph> graph_;
  LinkCostFn link_cost_;
  mutable std::mutex columns_mutex_;
  /// Lazily materialized per-target columns, indexed by target id. Entries
  /// are immutable once published and shared across copies.
  mutable std::vector<std::shared_ptr<const Column>> columns_;
};

}  // namespace m2m

#endif  // M2M_ROUTING_PATH_SYSTEM_H_
