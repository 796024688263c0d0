#include "topology/topology.h"

#include <algorithm>
#include <queue>

#include "common/check.h"

namespace m2m {

Topology::Topology(std::vector<Point> positions, double radio_range_m)
    : positions_(std::move(positions)), radio_range_m_(radio_range_m) {
  M2M_CHECK_GT(radio_range_m_, 0.0);
  M2M_CHECK(!positions_.empty());
  const int n = node_count();
  // Counting-sort the nodes into grid cells at least one radio range wide:
  // every neighbor of a node lies in its 3x3 cell block, so construction
  // costs O(n * local density) instead of O(n^2) — the difference between
  // milliseconds and hours at 100k nodes. Adjacency lists are sorted per
  // node, so the result is byte-identical to the all-pairs sweep.
  double min_x = positions_[0].x, max_x = positions_[0].x;
  double min_y = positions_[0].y, max_y = positions_[0].y;
  for (const Point& p : positions_) {
    min_x = std::min(min_x, p.x);
    max_x = std::max(max_x, p.x);
    min_y = std::min(min_y, p.y);
    max_y = std::max(max_y, p.y);
  }
  // Coarsen the grid of a sparse deployment so the cell counts stay O(n).
  double cell = radio_range_m_;
  while (((max_x - min_x) / cell + 1) * ((max_y - min_y) / cell + 1) >
         2.0 * n + 16) {
    cell *= 2;
  }
  const int64_t cols = static_cast<int64_t>((max_x - min_x) / cell) + 1;
  const int64_t rows = static_cast<int64_t>((max_y - min_y) / cell) + 1;
  std::vector<int64_t> cell_of(n);
  std::vector<int32_t> start(cols * rows + 1, 0);
  for (NodeId i = 0; i < n; ++i) {
    cell_of[i] =
        static_cast<int64_t>((positions_[i].y - min_y) / cell) * cols +
        static_cast<int64_t>((positions_[i].x - min_x) / cell);
    ++start[cell_of[i] + 1];
  }
  for (size_t c = 1; c < start.size(); ++c) start[c] += start[c - 1];
  grid_order_.resize(n);
  std::vector<int32_t> fill(start.begin(), start.end() - 1);
  for (NodeId i = 0; i < n; ++i) grid_order_[fill[cell_of[i]]++] = i;

  row_begin_.reserve(n + 1);
  row_begin_.push_back(0);
  const double range_sq = radio_range_m_ * radio_range_m_;
  std::vector<NodeId> list;
  for (NodeId a = 0; a < n; ++a) {
    const int64_t cx = cell_of[a] % cols;
    const int64_t cy = cell_of[a] / cols;
    list.clear();
    for (int64_t y = std::max<int64_t>(cy - 1, 0);
         y <= std::min(cy + 1, rows - 1); ++y) {
      const int64_t row = y * cols;
      const int32_t block_end = start[row + std::min(cx + 1, cols - 1) + 1];
      for (int32_t k = start[row + std::max<int64_t>(cx - 1, 0)];
           k < block_end; ++k) {
        const NodeId b = grid_order_[k];
        if (b != a &&
            DistanceSquared(positions_[a], positions_[b]) <= range_sq) {
          list.push_back(b);
        }
      }
    }
    std::sort(list.begin(), list.end());
    neighbor_.insert(neighbor_.end(), list.begin(), list.end());
    row_begin_.push_back(neighbor_.size());
  }
}

Topology Topology::WithFailures(
    const Topology& base,
    const std::vector<std::pair<NodeId, NodeId>>& failed_links,
    const std::vector<NodeId>& dead_nodes) {
  Topology masked;
  masked.positions_ = base.positions_;
  masked.radio_range_m_ = base.radio_range_m_;
  masked.grid_order_ = base.grid_order_;
  std::vector<bool> dead(base.node_count(), false);
  for (NodeId n : dead_nodes) {
    base.CheckNode(n);
    dead[n] = true;
  }
  // Both orientations of every failed link, sorted: the adjacency walk
  // below visits (a, b) in the same order, so one cursor merges the two.
  std::vector<std::pair<NodeId, NodeId>> failed;
  failed.reserve(2 * failed_links.size() + 1);
  for (const auto& [a, b] : failed_links) {
    failed.emplace_back(a, b);
    failed.emplace_back(b, a);
  }
  std::sort(failed.begin(), failed.end());
  failed.emplace_back(base.node_count(), 0);  // Sentinel past every link.
  auto next_failed = failed.begin();
  masked.row_begin_.reserve(base.row_begin_.size());
  masked.row_begin_.push_back(0);
  masked.neighbor_.reserve(base.neighbor_.size());
  for (NodeId a = 0; a < base.node_count(); ++a) {
    if (!dead[a]) {
      for (NodeId b : base.neighbors(a)) {
        while (*next_failed < std::pair{a, b}) ++next_failed;
        if (dead[b] || *next_failed == std::pair{a, b}) continue;
        masked.neighbor_.push_back(b);
      }
    }
    masked.row_begin_.push_back(masked.neighbor_.size());
  }
  return masked;
}

void Topology::CheckNode(NodeId n) const {
  M2M_CHECK(n >= 0 && n < node_count()) << "node id " << n << " out of range";
}

const Point& Topology::position(NodeId n) const {
  CheckNode(n);
  return positions_[n];
}

std::span<const NodeId> Topology::neighbors(NodeId n) const {
  CheckNode(n);
  return {neighbor_.data() + row_begin_[n],
          neighbor_.data() + row_begin_[n + 1]};
}

bool Topology::AreNeighbors(NodeId a, NodeId b) const {
  CheckNode(a);
  CheckNode(b);
  const std::span<const NodeId> list = neighbors(a);
  return std::binary_search(list.begin(), list.end(), b);
}

double Topology::average_degree() const {
  return static_cast<double>(neighbor_.size()) / node_count();
}

bool Topology::IsConnected() const {
  return BuildComponents(*this).component_count == 1;
}

std::vector<int> Topology::HopDistancesFrom(NodeId origin) const {
  CheckNode(origin);
  std::vector<int> dist(node_count(), -1);
  std::queue<NodeId> frontier;
  dist[origin] = 0;
  frontier.push(origin);
  while (!frontier.empty()) {
    NodeId u = frontier.front();
    frontier.pop();
    for (NodeId v : neighbors(u)) {
      if (dist[v] < 0) {
        dist[v] = dist[u] + 1;
        frontier.push(v);
      }
    }
  }
  return dist;
}

std::vector<NodeId> Topology::NodesAtHopDistance(NodeId origin,
                                                 int hops) const {
  std::vector<int> dist = HopDistancesFrom(origin);
  std::vector<NodeId> result;
  for (NodeId n = 0; n < node_count(); ++n) {
    if (dist[n] == hops) result.push_back(n);
  }
  return result;
}

std::vector<NodeId> ComponentMap::Members(int c) const {
  std::vector<NodeId> out;
  for (NodeId n = 0; n < static_cast<NodeId>(component.size()); ++n) {
    if (component[static_cast<size_t>(n)] == c) out.push_back(n);
  }
  return out;
}

std::vector<int> ComponentMap::Sizes() const {
  std::vector<int> sizes(static_cast<size_t>(component_count), 0);
  for (int c : component) ++sizes[static_cast<size_t>(c)];
  return sizes;
}

ComponentMap BuildComponents(const Topology& topology) {
  const int n = topology.node_count();
  ComponentMap map;
  map.component.assign(static_cast<size_t>(n), -1);
  for (NodeId start = 0; start < n; ++start) {
    if (map.component[static_cast<size_t>(start)] >= 0) continue;
    const int label = map.component_count++;
    std::queue<NodeId> frontier;
    map.component[static_cast<size_t>(start)] = label;
    frontier.push(start);
    while (!frontier.empty()) {
      NodeId u = frontier.front();
      frontier.pop();
      for (NodeId v : topology.neighbors(u)) {
        if (map.component[static_cast<size_t>(v)] >= 0) continue;
        map.component[static_cast<size_t>(v)] = label;
        frontier.push(v);
      }
    }
  }
  return map;
}

}  // namespace m2m
