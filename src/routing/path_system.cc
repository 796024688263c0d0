#include "routing/path_system.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "common/check.h"
#include "common/rng.h"

namespace m2m {

namespace {

// Base weight per hop. Epsilon sums along any simple path (< 2^13 hops of
// < 2^27 each) stay below this, so hop count remains the primary metric.
constexpr int64_t kHopBase = int64_t{1} << 40;
constexpr int64_t kUnreachable = std::numeric_limits<int64_t>::max();

int64_t LinkWeight(NodeId a, NodeId b, uint64_t seed,
                   const PathSystem::LinkCostFn& link_cost) {
  NodeId lo = std::min(a, b);
  NodeId hi = std::max(a, b);
  uint64_t h = SplitMix64(seed ^ ((static_cast<uint64_t>(lo) << 32) |
                                  static_cast<uint32_t>(hi)));
  int64_t epsilon = static_cast<int64_t>(h & ((uint64_t{1} << 27) - 1)) + 1;
  double cost = 1.0;
  if (link_cost != nullptr) {
    cost = link_cost(a, b);
    M2M_CHECK_GE(cost, 1.0) << "link cost below 1.0";
    M2M_CHECK_LE(cost, 1024.0) << "link cost too large";
  }
  return static_cast<int64_t>(cost * kHopBase) + epsilon;
}

}  // namespace

PathSystem::PathSystem(const Topology& topology, uint64_t perturbation_seed,
                       const LinkCostFn& link_cost)
    : node_count_(topology.node_count()),
      topology_(topology),
      perturbation_seed_(perturbation_seed),
      link_cost_(link_cost),
      columns_(topology.node_count()) {}

PathSystem::PathSystem(const PathSystem& other)
    : node_count_(other.node_count_),
      topology_(other.topology_),
      perturbation_seed_(other.perturbation_seed_),
      link_cost_(other.link_cost_) {
  std::lock_guard<std::mutex> lock(other.columns_mutex_);
  columns_ = other.columns_;
}

PathSystem& PathSystem::operator=(const PathSystem& other) {
  if (this == &other) return *this;
  std::vector<std::shared_ptr<const Column>> snapshot;
  {
    std::lock_guard<std::mutex> lock(other.columns_mutex_);
    snapshot = other.columns_;
  }
  node_count_ = other.node_count_;
  topology_ = other.topology_;
  perturbation_seed_ = other.perturbation_seed_;
  link_cost_ = other.link_cost_;
  std::lock_guard<std::mutex> lock(columns_mutex_);
  columns_ = std::move(snapshot);
  return *this;
}

PathSystem::Column PathSystem::BuildColumn(NodeId t) const {
  const int n = node_count_;
  Column column;
  column.weight.assign(n, kUnreachable);
  column.next_hop.assign(n, kInvalidNode);

  // One Dijkstra from target t: toward[u] is u's neighbor on the unique
  // shortest path from u toward t, i.e. NextHop(u, t).
  using QueueEntry = std::pair<int64_t, NodeId>;
  std::vector<int64_t>& dist = column.weight;
  std::vector<NodeId> toward(n, kInvalidNode);
  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      queue;
  dist[t] = 0;
  queue.push({0, t});
  while (!queue.empty()) {
    auto [d, u] = queue.top();
    queue.pop();
    if (d != dist[u]) continue;
    for (NodeId v : topology_.neighbors(u)) {
      int64_t w = LinkWeight(u, v, perturbation_seed_, link_cost_);
      if (dist[u] != kUnreachable && dist[u] + w < dist[v]) {
        dist[v] = dist[u] + w;
        toward[v] = u;
        queue.push({dist[v], v});
      }
    }
  }
  for (NodeId u = 0; u < n; ++u) {
    column.next_hop[u] = (u == t) ? t : toward[u];
  }
  return column;
}

const PathSystem::Column& PathSystem::ColumnFor(NodeId t) const {
  {
    std::lock_guard<std::mutex> lock(columns_mutex_);
    const std::shared_ptr<const Column>& existing = columns_[t];
    if (existing != nullptr) return *existing;
  }
  // Build outside the lock: a concurrent racer computes the identical
  // column, and whichever publishes second is discarded.
  auto built = std::make_shared<const Column>(BuildColumn(t));
  std::lock_guard<std::mutex> lock(columns_mutex_);
  std::shared_ptr<const Column>& slot = columns_[t];
  if (slot == nullptr) slot = std::move(built);
  return *slot;
}

int64_t PathSystem::SymmetricWeight(NodeId u, NodeId v) const {
  if (u == v) return 0;
  {
    std::lock_guard<std::mutex> lock(columns_mutex_);
    if (columns_[v] != nullptr) return columns_[v]->weight[u];
    if (columns_[u] != nullptr) return columns_[u]->weight[v];
  }
  // Neither endpoint is materialized: build u's column, so query patterns
  // with a fixed first argument (eccentricity scans, base-station distance
  // sweeps) amortize to a single Dijkstra.
  return ColumnFor(u).weight[v];
}

void PathSystem::CheckNode(NodeId n) const {
  M2M_CHECK(n >= 0 && n < node_count_) << "node id " << n << " out of range";
}

int PathSystem::HopDistance(NodeId u, NodeId v) const {
  CheckNode(u);
  CheckNode(v);
  int64_t w = SymmetricWeight(u, v);
  M2M_CHECK_NE(w, kUnreachable) << "node " << v << " unreachable from " << u;
  return static_cast<int>(w >> 40);
}

int64_t PathSystem::PathWeight(NodeId u, NodeId v) const {
  CheckNode(u);
  CheckNode(v);
  return SymmetricWeight(u, v);
}

NodeId PathSystem::NextHop(NodeId u, NodeId v) const {
  CheckNode(u);
  CheckNode(v);
  M2M_CHECK_NE(u, v);
  // Under the default link cost the direct link (one hop base weight plus
  // epsilon < 2^27) strictly beats any detour (>= two hop base weights), so
  // adjacency decides the next hop without a column. This keeps the default
  // milestone policy (every node a milestone => every forest edge a single
  // physical hop) from materializing a column per route node.
  if (link_cost_ == nullptr && topology_.AreNeighbors(u, v)) return v;
  NodeId next = ColumnFor(v).next_hop[u];
  M2M_CHECK_NE(next, kInvalidNode)
      << "node " << v << " unreachable from " << u;
  return next;
}

NodeId PathSystem::NextHopAlong(NodeId root, NodeId u, NodeId v) const {
  CheckNode(root);
  CheckNode(u);
  CheckNode(v);
  const Column& column = ColumnFor(root);
  if (column.next_hop[v] == kInvalidNode) return kInvalidNode;
  for (NodeId cursor = v; cursor != root;) {
    const NodeId next = column.next_hop[cursor];
    if (next == u) return cursor;
    cursor = next;
  }
  return kInvalidNode;
}

std::vector<NodeId> PathSystem::Path(NodeId u, NodeId v) const {
  CheckNode(u);
  CheckNode(v);
  std::vector<NodeId> path;
  path.push_back(u);
  NodeId cursor = u;
  while (cursor != v) {
    cursor = NextHop(cursor, v);
    path.push_back(cursor);
    M2M_CHECK_LE(path.size(), static_cast<size_t>(node_count_))
        << "next-hop cycle detected";
  }
  return path;
}

int PathSystem::Eccentricity(NodeId u) const {
  CheckNode(u);
  // Distances are symmetric, so u's own column holds d(u, v) for every v —
  // one Dijkstra instead of n.
  const Column& column = ColumnFor(u);
  int best = 0;
  for (NodeId v = 0; v < node_count_; ++v) {
    int64_t w = column.weight[v];
    M2M_CHECK_NE(w, kUnreachable) << "node " << v << " unreachable from "
                                  << u;
    best = std::max(best, static_cast<int>(w >> 40));
  }
  return best;
}

int PathSystem::materialized_column_count() const {
  std::lock_guard<std::mutex> lock(columns_mutex_);
  return static_cast<int>(
      std::count_if(columns_.begin(), columns_.end(),
                    [](const auto& column) { return column != nullptr; }));
}

bool PathSystem::PathIsConsistent(NodeId u, NodeId v) const {
  std::vector<NodeId> path = Path(u, v);
  for (size_t i = 0; i < path.size(); ++i) {
    for (size_t j = i; j < path.size(); ++j) {
      std::vector<NodeId> sub = Path(path[i], path[j]);
      if (sub.size() != j - i + 1) return false;
      if (!std::equal(sub.begin(), sub.end(), path.begin() + i)) return false;
    }
  }
  return true;
}

}  // namespace m2m
