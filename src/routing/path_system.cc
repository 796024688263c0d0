#include "routing/path_system.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <tuple>

#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace m2m {

namespace {

// Base weight per hop. Epsilon sums along any simple path (< 2^13 hops of
// <= 2^27 each) stay below this, so hop count remains the primary metric.
constexpr int64_t kHopBase = int64_t{1} << 40;
constexpr int64_t kUnreachable = std::numeric_limits<int64_t>::max();
// A layered sweep is exact while every layer's epsilon sum stays below
// kHopBase, i.e. for paths of fewer than 2^13 hops.
constexpr int64_t kMaxLayeredHops = int64_t{1} << 13;

uint32_t Epsilon(NodeId a, NodeId b, uint64_t seed) {
  uint64_t h = SplitMix64(seed ^ PackLink(a, b));
  return static_cast<uint32_t>(h & ((uint64_t{1} << 27) - 1)) + 1;
}

int64_t LinkWeight(NodeId a, NodeId b, uint32_t epsilon,
                   const PathSystem::LinkCostFn& link_cost) {
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
      link_cost_(link_cost),
      columns_(topology.node_count()) {
  const int n = node_count_;
  auto graph = std::make_shared<Graph>();
  graph->original = topology.grid_order();
  graph->internal.resize(n);
  for (int32_t i = 0; i < n; ++i) graph->internal[graph->original[i]] = i;
  graph->row_begin.assign(n + 1, 0);
  uint64_t entries = 0;
  for (int32_t i = 0; i < n; ++i) {
    entries += topology.neighbors(graph->original[i]).size();
    M2M_CHECK_LE(entries, std::numeric_limits<uint32_t>::max())
        << "too many links for the routing graph";
    graph->row_begin[i + 1] = static_cast<uint32_t>(entries);
  }
  graph->neighbor.resize(entries);
  graph->epsilon.resize(entries);
  // Scatter every link into its far end's row, visiting near ends in
  // internal order: each row fills in ascending order, so no row needs a
  // sort. Links are symmetric, so this is each row's own neighbor list.
  std::vector<uint32_t> fill(graph->row_begin.begin(),
                             graph->row_begin.end() - 1);
  // Both entries of a link hash its epsilon: one SplitMix64 costs less
  // than finding the mirror entry to copy it from (a second pass over the
  // entries measured ~20% slower at 1k-100k nodes).
  for (int32_t u = 0; u < n; ++u) {
    const NodeId a = graph->original[u];
    for (NodeId b : topology.neighbors(a)) {
      const uint32_t e = fill[graph->internal[b]]++;
      graph->neighbor[e] = u;
      graph->epsilon[e] = Epsilon(a, b, perturbation_seed);
    }
  }
  for (int32_t v = 0; v < n; ++v) {
    M2M_CHECK_EQ(fill[v], graph->row_begin[v + 1]) << "asymmetric links";
  }
  graph_ = std::move(graph);
}

PathSystem::PathSystem(const PathSystem& other)
    : node_count_(other.node_count_),
      graph_(other.graph_),
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
  graph_ = other.graph_;
  link_cost_ = other.link_cost_;
  std::lock_guard<std::mutex> lock(columns_mutex_);
  columns_ = std::move(snapshot);
  return *this;
}

bool PathSystem::LayeredSweep(int32_t target, std::vector<int64_t>& dist,
                              std::vector<int32_t>& parent) const {
  const Graph& g = *graph_;
  dist.assign(node_count_, kUnreachable);
  parent.assign(node_count_, -1);
  dist[target] = 0;
  // The heap settles equal weights in (weight, topology id) order and keeps
  // the first strict improvement, so on an exact tie the parent that
  // settled first wins.
  auto settles_first = [&](int32_t a, int32_t b) {
    return dist[a] != dist[b] ? dist[a] < dist[b]
                              : g.original[a] < g.original[b];
  };
  std::vector<int32_t> layer(node_count_ + 1);
  std::vector<int32_t> next(node_count_ + 1);
  layer[0] = target;
  size_t layer_size = 1;
  for (int64_t hops = 1; layer_size > 0; ++hops) {
    if (hops == kMaxLayeredHops) return false;
    // `layer` holds the nodes `hops - 1` hops out. Layer k weighs within
    // [k * kHopBase, (k + 1) * kHopBase), so every candidate (at least
    // hops * kHopBase) is heavier than any node of layers up to hops - 1:
    // the minimum below only ever moves nodes `hops` hops out.
    size_t next_size = 0;
    for (size_t i = 0; i < layer_size; ++i) {
      const int32_t u = layer[i];
      const int64_t base = dist[u] + kHopBase;
      const uint32_t row_end = g.row_begin[u + 1];
      for (uint32_t e = g.row_begin[u]; e < row_end; ++e) {
        // Branch-free on the common path: about half the entries lead
        // back into settled layers, in no predictable order.
        const int32_t v = g.neighbor[e];
        const int64_t dv = dist[v];
        const int64_t candidate = base + g.epsilon[e];
        next[next_size] = v;
        next_size += dv == kUnreachable;
        const bool better = candidate < dv;
        if (candidate == dv) [[unlikely]] {
          if (settles_first(u, parent[v])) parent[v] = u;
          continue;
        }
        dist[v] = better ? candidate : dv;
        parent[v] = better ? u : parent[v];
      }
    }
    layer.swap(next);
    layer_size = next_size;
  }
  return true;
}

void PathSystem::HeapSweep(int32_t target, std::vector<int64_t>& dist,
                           std::vector<int32_t>& parent) const {
  const Graph& g = *graph_;
  dist.assign(node_count_, kUnreachable);
  parent.assign(node_count_, -1);
  // Ordered by (weight, topology id); the internal id rides along.
  using QueueEntry = std::tuple<int64_t, NodeId, int32_t>;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      queue;
  dist[target] = 0;
  queue.push({0, g.original[target], target});
  while (!queue.empty()) {
    auto [d, a, u] = queue.top();
    queue.pop();
    if (d != dist[u]) continue;
    for (uint32_t e = g.row_begin[u]; e < g.row_begin[u + 1]; ++e) {
      const int32_t v = g.neighbor[e];
      const NodeId b = g.original[v];
      const int64_t candidate = d + LinkWeight(a, b, g.epsilon[e], link_cost_);
      if (candidate < dist[v]) {
        dist[v] = candidate;
        parent[v] = u;
        queue.push({candidate, b, v});
      }
    }
  }
}

PathSystem::Column PathSystem::BuildColumn(NodeId t) const {
  const Graph& g = *graph_;
  // parent[i] is internal node i's neighbor on its shortest path toward t,
  // i.e. NextHop(i, t).
  std::vector<int64_t> dist;
  std::vector<int32_t> parent;
  const int32_t target = g.internal[t];
  if (link_cost_ != nullptr || !LayeredSweep(target, dist, parent)) {
    HeapSweep(target, dist, parent);
  }
  // Un-permute once, so the column and every query stay in topology ids.
  Column column;
  column.weight.resize(node_count_);
  column.next_hop.resize(node_count_);
  for (int32_t i = 0; i < node_count_; ++i) {
    const NodeId u = g.original[i];
    column.weight[u] = dist[i];
    column.next_hop[u] = parent[i] < 0 ? kInvalidNode : g.original[parent[i]];
  }
  column.next_hop[t] = t;
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
  // sweeps) amortize to a single column.
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
  // Adjacency decides a default-cost hop without a column. This keeps the
  // default milestone policy (every node a milestone => every forest edge a
  // single physical hop) from materializing a column per route node.
  if (IsDirectHop(u, v)) return v;
  NodeId next = ColumnFor(v).next_hop[u];
  M2M_CHECK_NE(next, kInvalidNode)
      << "node " << v << " unreachable from " << u;
  return next;
}

bool PathSystem::IsDirectHop(NodeId u, NodeId v) const {
  CheckNode(u);
  CheckNode(v);
  if (link_cost_ != nullptr) return false;
  const Graph& g = *graph_;
  const int32_t row = g.internal[u];
  return std::binary_search(g.neighbor.begin() + g.row_begin[row],
                            g.neighbor.begin() + g.row_begin[row + 1],
                            g.internal[v]);
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
  // one column instead of n.
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

void PathSystem::Materialize(const std::vector<NodeId>& targets) const {
  for (NodeId t : targets) CheckNode(t);
  // Each shard builds whole columns; ColumnFor publishes them under the
  // lock, and a column is the same whichever thread builds it.
  ParallelFor(static_cast<int64_t>(targets.size()),
              [&](int64_t begin, int64_t end) {
                for (int64_t i = begin; i < end; ++i) ColumnFor(targets[i]);
              });
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
