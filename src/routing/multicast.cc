#include "routing/multicast.h"

#include <algorithm>
#include <unordered_set>

#include "common/check.h"

namespace m2m {

MulticastForest::MulticastForest(const PathSystem& paths,
                                 std::vector<Task> tasks,
                                 const MilestoneSelector* milestones)
    : tasks_(std::move(tasks)), node_count_(paths.node_count()) {
  UpdateFrom(MulticastForest(), paths, milestones);
}

MulticastForest::MulticastForest(const MulticastForest& previous,
                                 const PathSystem& paths,
                                 std::vector<Task> tasks)
    : tasks_(std::move(tasks)), node_count_(paths.node_count()) {
  M2M_CHECK(previous.tasks_.empty() || previous.RoutesOver(paths))
      << "a forest update must keep the previous forest's routing";
  UpdateFrom(previous, paths, /*milestones=*/nullptr);
}

bool MulticastForest::RoutesOver(const PathSystem& paths) const {
  const std::weak_ptr<const void> routing = paths.routing_identity();
  return !milestone_level_ && !routing_.owner_before(routing) &&
         !routing.owner_before(routing_);
}

void MulticastForest::UpdateFrom(const MulticastForest& previous,
                                 const PathSystem& paths,
                                 const MilestoneSelector* milestones) {
  routing_ = paths.routing_identity();
  milestone_level_ = milestones != nullptr;

  // Validate the task list and collect its pairs.
  std::vector<SourceDestPair> pairs;
  std::vector<NodeId> sorted_sources;
  for (const Task& task : tasks_) {
    const NodeId d = task.destination;
    M2M_CHECK(d >= 0 && d < node_count_);
    destination_ids_.push_back(d);
    for (NodeId s : task.sources) {
      M2M_CHECK(s >= 0 && s < node_count_);
      source_ids_.push_back(s);
      pairs.push_back({s, d});
    }
    sorted_sources.assign(task.sources.begin(), task.sources.end());
    std::sort(sorted_sources.begin(), sorted_sources.end());
    const auto twice =
        std::adjacent_find(sorted_sources.begin(), sorted_sources.end());
    M2M_CHECK(twice == sorted_sources.end())
        << "duplicate source " << *twice << " for destination " << d;
  }
  std::sort(destination_ids_.begin(), destination_ids_.end());
  const auto twice =
      std::adjacent_find(destination_ids_.begin(), destination_ids_.end());
  M2M_CHECK(twice == destination_ids_.end())
      << "destination " << *twice << " has two tasks";
  std::sort(source_ids_.begin(), source_ids_.end());
  source_ids_.erase(std::unique(source_ids_.begin(), source_ids_.end()),
                    source_ids_.end());
  std::sort(pairs.begin(), pairs.end());

  // Temporary edge ids: previous's edge indices, then the edges created
  // here. A pair previous routes keeps its route; a new one is walked.
  const int previous_count = static_cast<int>(previous.edges_.size());
  std::vector<ForestEdge> created;
  std::unordered_map<DirectedEdge, int, DirectedEdgeHash> created_id;
  auto edge_id = [&](NodeId tail, NodeId head) {
    const DirectedEdge key{tail, head};
    const int kept = previous.EdgeIndexOf(key);
    if (kept >= 0) return kept;
    const auto [it, inserted] = created_id.try_emplace(
        key, previous_count + static_cast<int>(created.size()));
    if (inserted) {
      ForestEdge edge;
      edge.edge = key;
      edge.segment = paths.Path(tail, head);
      created.push_back(std::move(edge));
    }
    return it->second;
  };
  // Routes in temporary ids, one per pair in (task, source) order. A pair
  // joins the pairs of each created edge it crosses during the walk; joins
  // to kept edges wait until those are copied.
  std::vector<const std::vector<int>*> kept_route(pairs.size(), nullptr);
  std::vector<std::vector<int>> walked_route(pairs.size());
  std::vector<std::pair<int, SourceDestPair>> kept_joins;
  size_t k = 0;
  for (const Task& task : tasks_) {
    for (NodeId s : task.sources) {
      const SourceDestPair pair{s, task.destination};
      const auto kept = previous.routes_.find(pair);
      if (kept != previous.routes_.end()) {
        kept_route[k++] = &kept->second;
        continue;
      }
      std::vector<int>& route = walked_route[k++];
      // A destination reading its own sensor needs no routing.
      if (s == task.destination) continue;
      // Milestone subsequence of the canonical path s -> d.
      const std::vector<NodeId> physical = paths.Path(s, task.destination);
      NodeId tail = s;
      for (size_t i = 1; i < physical.size(); ++i) {
        if (i + 1 < physical.size() && milestones != nullptr &&
            !milestones->IsMilestone(physical[i])) {
          continue;
        }
        const int id = edge_id(tail, physical[i]);
        route.push_back(id);
        tail = physical[i];
        if (id < previous_count) {
          kept_joins.emplace_back(id, pair);
          continue;
        }
        // A route visits an edge at most once, so no dedup needed; keep the
        // list sorted on insert.
        auto& edge_pairs = created[id - previous_count].pairs;
        edge_pairs.insert(
            std::lower_bound(edge_pairs.begin(), edge_pairs.end(), pair), pair);
      }
    }
  }

  // Renumber in full-build order: an edge's index is the rank of its first
  // encounter over (task, source, hop), so one pass over the routes in that
  // order numbers the edges as a build from empty would, and fills each
  // tree in the same push order.
  std::vector<int> new_index(previous_count + created.size(), -1);
  std::vector<int> order;  // Temporary id of each new index.
  routes_.reserve(pairs.size());
  k = 0;
  for (const Task& task : tasks_) {
    for (NodeId s : task.sources) {
      const std::vector<int>* kept = kept_route[k];
      std::vector<int> route = kept != nullptr
                                   ? *kept
                                   : std::move(walked_route[k]);
      ++k;
      std::vector<int>* tree = route.empty() ? nullptr : &tree_edges_[s];
      for (int& id : route) {
        int& index = new_index[id];
        if (index < 0) {
          index = static_cast<int>(order.size());
          order.push_back(id);
        }
        id = index;
        if (std::find(tree->begin(), tree->end(), index) == tree->end()) {
          tree->push_back(index);
        }
      }
      routes_.emplace(SourceDestPair{s, task.destination}, std::move(route));
    }
  }

  // Edges no route reaches have no pairs left and are dropped.
  edges_.reserve(order.size());
  for (int id : order) {
    if (id < previous_count) {
      edges_.push_back(previous.edges_[id]);
    } else {
      edges_.push_back(std::move(created[id - previous_count]));
    }
  }
  for (const Task& task : previous.tasks_) {
    for (NodeId s : task.sources) {
      const SourceDestPair pair{s, task.destination};
      if (std::binary_search(pairs.begin(), pairs.end(), pair)) continue;
      for (int id : previous.routes_.at(pair)) {
        if (new_index[id] < 0) continue;
        auto& edge_pairs = edges_[new_index[id]].pairs;
        edge_pairs.erase(
            std::lower_bound(edge_pairs.begin(), edge_pairs.end(), pair));
      }
    }
  }
  for (const auto& [id, pair] : kept_joins) {
    auto& edge_pairs = edges_[new_index[id]].pairs;
    edge_pairs.insert(
        std::lower_bound(edge_pairs.begin(), edge_pairs.end(), pair), pair);
  }

  // Key order: previous's surviving keys (already sorted) merged with the
  // created ones.
  edges_by_key_.reserve(edges_.size());
  for (const KeyedEdge& keyed : previous.edges_by_key_) {
    if (new_index[keyed.index] >= 0) {
      edges_by_key_.push_back({keyed.key, new_index[keyed.index]});
    }
  }
  const auto created_begin = static_cast<ptrdiff_t>(edges_by_key_.size());
  for (size_t c = 0; c < created.size(); ++c) {
    const int index = new_index[previous_count + static_cast<int>(c)];
    edges_by_key_.push_back({edges_[index].edge, index});
  }
  auto by_key = [](const KeyedEdge& a, const KeyedEdge& b) {
    return a.key < b.key;
  };
  std::sort(edges_by_key_.begin() + created_begin, edges_by_key_.end(),
            by_key);
  std::inplace_merge(edges_by_key_.begin(),
                     edges_by_key_.begin() + created_begin,
                     edges_by_key_.end(), by_key);
  M2M_CHECK(CheckMinimality());
  M2M_CHECK(CheckSharing());
}

int MulticastForest::EdgeIndexOf(DirectedEdge e) const {
  const auto it = std::lower_bound(
      edges_by_key_.begin(), edges_by_key_.end(), e,
      [](const KeyedEdge& keyed, DirectedEdge key) { return keyed.key < key; });
  return it == edges_by_key_.end() || it->key != e ? -1 : it->index;
}

const std::vector<int>& MulticastForest::Route(SourceDestPair pair) const {
  auto it = routes_.find(pair);
  M2M_CHECK(it != routes_.end())
      << "pair (" << pair.source << " -> " << pair.destination
      << ") not in the relation";
  return it->second;
}

const std::vector<int>& MulticastForest::TreeEdges(NodeId source) const {
  auto it = tree_edges_.find(source);
  if (it == tree_edges_.end()) return empty_route_;
  return it->second;
}

int MulticastForest::MulticastTreeSize(NodeId source) const {
  std::unordered_set<NodeId> nodes;
  nodes.insert(source);
  for (int index : TreeEdges(source)) {
    for (NodeId n : edges_[index].segment) nodes.insert(n);
  }
  return static_cast<int>(nodes.size());
}

int MulticastForest::AggregationTreeSize(NodeId destination) const {
  std::unordered_set<NodeId> nodes;
  nodes.insert(destination);
  for (const Task& task : tasks_) {
    if (task.destination != destination) continue;
    for (NodeId s : task.sources) {
      for (int index : Route(SourceDestPair{s, destination})) {
        for (NodeId n : edges_[index].segment) nodes.insert(n);
      }
    }
  }
  return static_cast<int>(nodes.size());
}

int64_t MulticastForest::TotalPhysicalHops() const {
  int64_t total = 0;
  for (const ForestEdge& e : edges_) total += e.hop_length();
  return total;
}

bool MulticastForest::CheckMinimality() const {
  // (source, destination) of every task, grouped by source.
  std::vector<SourceDestPair> served;
  for (const Task& task : tasks_) {
    for (NodeId s : task.sources) served.push_back({s, task.destination});
  }
  std::sort(served.begin(), served.end());
  // tail_stamp[n] == source marks n as a milestone-level tail in source's
  // tree; a tree head that is no tail is a leaf.
  std::vector<NodeId> tail_stamp(node_count_, kInvalidNode);
  for (const auto& [source, tree] : tree_edges_) {
    for (int index : tree) tail_stamp[edges_[index].edge.tail] = source;
    for (int index : tree) {
      const NodeId head = edges_[index].edge.head;
      const bool is_leaf = tail_stamp[head] != source;
      if (is_leaf && !std::binary_search(served.begin(), served.end(),
                                         SourceDestPair{source, head})) {
        return false;
      }
    }
  }
  return true;
}

bool MulticastForest::CheckSharing() const {
  // (a) Each tree is a tree: at milestone level every node has at most one
  // incoming edge within the tree, and the source has none.
  // head_stamp[n] == source marks n as a head already seen in source's tree.
  std::vector<NodeId> head_stamp(node_count_, kInvalidNode);
  for (const auto& [source, tree] : tree_edges_) {
    for (int index : tree) {
      const NodeId head = edges_[index].edge.head;
      if (head == source || head_stamp[head] == source) return false;
      head_stamp[head] = source;
    }
  }
  // (b) Overlapping routes share segments: two trees that both route
  // tail -> head use the same ForestEdge. This holds by construction, since
  // the forest keeps one ForestEdge per (tail, head) key and its segment is
  // the consistent path system's path, so nothing is checked here.
  return true;
}

}  // namespace m2m
