#ifndef M2M_FLOW_MAX_FLOW_H_
#define M2M_FLOW_MAX_FLOW_H_

#include <cstdint>
#include <vector>

namespace m2m {

/// Dinic's maximum-flow algorithm over a directed graph with 64-bit integer
/// capacities. Vertices are dense ints assigned by the caller. Used to solve
/// minimum weighted bipartite vertex cover via max-flow/min-cut (the
/// "standard network flow techniques" of paper section 2.2).
class MaxFlow {
 public:
  explicit MaxFlow(int vertex_count);

  MaxFlow(const MaxFlow&) = default;
  MaxFlow& operator=(const MaxFlow&) = default;
  MaxFlow(MaxFlow&&) noexcept = default;
  MaxFlow& operator=(MaxFlow&&) noexcept = default;

  /// Adds a directed edge with the given capacity (>= 0); returns an edge id
  /// usable with `flow()` after solving.
  int AddEdge(int from, int to, int64_t capacity);

  /// Computes the maximum flow from `source` to `sink`. May be called once.
  int64_t Solve(int source, int sink);

  /// Flow carried by edge `edge_id` after Solve().
  int64_t flow(int edge_id) const;

  /// Vertices reachable from `source` in the residual graph after Solve();
  /// `MinCutSide()[v]` is true iff v is on the source side of the min cut.
  std::vector<bool> MinCutSide(int source) const;

  /// Effectively infinite capacity (never saturated by realistic weights,
  /// and safe against int64 overflow when summed).
  static constexpr int64_t kInfinity = int64_t{1} << 60;

 private:
  struct Edge {
    int to;
    int64_t capacity;  // Residual capacity.
    int reverse;       // Index of the reverse edge in adjacency_[to].
    int64_t original_capacity;
  };

  bool BuildLevels(int source, int sink);
  int64_t Augment(int vertex, int sink, int64_t limit);

  int vertex_count_;
  std::vector<std::vector<Edge>> adjacency_;
  std::vector<std::pair<int, int>> edge_refs_;  // edge id -> (vertex, slot)
  std::vector<int> level_;
  std::vector<int> next_edge_;
  bool solved_ = false;
};

}  // namespace m2m

#endif  // M2M_FLOW_MAX_FLOW_H_
