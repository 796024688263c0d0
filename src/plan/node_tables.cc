#include "plan/node_tables.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/grouping.h"

namespace m2m {

namespace {

// A contribution to destination d's partial record at a node: either the
// result of pre-aggregating one raw value locally (kind 0, id = source), or
// a partial record arriving on one incoming edge (kind 1, id = edge index).
// Grouped by node, sorted and deduplicated, a node's records for one d form
// a run.
struct Contribution {
  NodeId destination = kInvalidNode;
  int kind = 0;
  int id = 0;

  friend auto operator<=>(const Contribution&, const Contribution&) = default;
};

}  // namespace

CompiledPlan CompiledPlan::Compile(GlobalPlan plan,
                                   const FunctionSet& functions,
                                   MergePolicy policy, uint32_t plan_epoch) {
  const MulticastForest& forest = plan.forest();
  const std::vector<ForestEdge>& edges = forest.edges();
  const int node_count = forest.node_count();
  CompiledPlan compiled(nullptr,
                        MessageSchedule::Build(plan, functions, policy),
                        plan_epoch);
  const MessageSchedule& schedule = compiled.schedule_;
  std::vector<TableOffsets>& offsets = compiled.offsets_;
  offsets.assign(node_count + 1, TableOffsets{});
  // Fill position of each node in a table filled in one forward pass.
  std::vector<int> cursor(node_count);

  // Outgoing message table: each node's messages in schedule order. A
  // message's node-local id is its index there.
  const int message_count = static_cast<int>(schedule.message_count());
  for (const MessageSchedule::Message& message : schedule.messages()) {
    ++offsets[edges[message.edge_index].edge.tail + 1].outgoing;
  }
  for (int n = 0; n < node_count; ++n) {
    offsets[n + 1].outgoing += offsets[n].outgoing;
    cursor[n] = offsets[n].outgoing;
  }
  std::vector<int> local_id(message_count);
  compiled.outgoing_.resize(message_count);
  for (int m = 0; m < message_count; ++m) {
    const MessageSchedule::Message message = schedule.message(m);
    const ForestEdge& edge = edges[message.edge_index];
    const NodeId tail = edge.edge.tail;
    local_id[m] = cursor[tail] - offsets[tail].outgoing;
    compiled.outgoing_[cursor[tail]++] = OutgoingMessageEntry{
        local_id[m], static_cast<int>(message.unit_ids.size()),
        edge.edge.head, edge.segment};
  }
  auto local_message = [&](int edge_index, bool is_partial, NodeId subject) {
    return local_id[schedule.message_of_unit(
        schedule.UnitOf(edge_index, is_partial, subject))];
  };

  // Raw and contribution records, grouped by node below. A raw value
  // fanning out to several of a node's outgoing messages needs one <s, g>
  // entry per message.
  size_t route_hops = 0;
  size_t route_count = 0;
  for (const Task& task : forest.tasks()) {
    for (NodeId s : task.sources) {
      route_hops += forest.Route(SourceDestPair{s, task.destination}).size();
      ++route_count;
    }
  }
  std::vector<std::pair<int, RawTableEntry>> raw_records;
  std::vector<std::pair<int, Contribution>> contribution_records;
  raw_records.reserve(route_hops);
  contribution_records.reserve(route_hops + route_count);
  compiled.is_destination_.assign(node_count, 0);
  for (const Task& task : forest.tasks()) {
    const NodeId d = task.destination;
    for (NodeId s : task.sources) {
      if (s == d) {
        // The destination pre-aggregates its own reading.
        contribution_records.push_back({d, {d, 0, s}});
        continue;
      }
      const std::vector<int>& route = forest.Route(SourceDestPair{s, d});
      bool carried_raw = true;  // The value is raw at the source itself.
      for (size_t i = 0; i < route.size(); ++i) {
        const int e = route[i];
        const NodeId n = edges[e].edge.tail;
        const EdgePlan& edge_plan = plan.plan_for(e);
        if (edge_plan.TransmitsRaw(s)) {
          M2M_CHECK(carried_raw)
              << "inconsistent plan: raw after aggregation";
          raw_records.push_back(
              {n, RawTableEntry{s, local_message(e, false, s)}});
          // Value continues raw to the next node.
        } else {
          M2M_CHECK(edge_plan.TransmitsAggregate(d));
          contribution_records.push_back(
              {n, carried_raw ? Contribution{d, 0, s}
                              : Contribution{d, 1, route[i - 1]}});
          carried_raw = false;
        }
      }
      // Arrival at the destination.
      contribution_records.push_back(
          {d, carried_raw ? Contribution{d, 0, s}
                          : Contribution{d, 1, route.back()}});
    }
    compiled.is_destination_[d] = 1;
  }

  // Raw table: each node's entries by (source, message).
  GroupSortUnique(raw_records, node_count,
                  [&](int n) -> int& { return offsets[n].raw; },
                  compiled.raw_);
  std::vector<int> contribution_begin(node_count + 1);
  std::vector<Contribution> contributions;
  GroupSortUnique(contribution_records, node_count,
                  [&](int n) -> int& { return contribution_begin[n]; },
                  contributions);

  // Pre-aggregation table: a node pre-aggregates s for exactly the
  // destinations whose contributions at that node include {0, s}.
  compiled.preagg_.reserve(contributions.size());
  for (int n = 0; n < node_count; ++n) {
    offsets[n].preagg = static_cast<int>(compiled.preagg_.size());
    for (int i = contribution_begin[n]; i < contribution_begin[n + 1]; ++i) {
      const Contribution& c = contributions[i];
      if (c.kind == 0) {
        compiled.preagg_.push_back(
            PreAggTableEntry{static_cast<NodeId>(c.id), c.destination});
      }
    }
  }
  offsets[node_count].preagg = static_cast<int>(compiled.preagg_.size());

  // Number of contributions d's partial record combines at `node`.
  auto contribution_count = [&](NodeId node, NodeId d) {
    return static_cast<int>(
        std::ranges::equal_range(
            contributions.begin() + contribution_begin[node],
            contributions.begin() + contribution_begin[node + 1], d, {},
            &Contribution::destination)
            .size());
  };
  // Partial aggregate table: one entry per edge-level partial unit, in edge
  // order, then one per destination-local record.
  for (size_t e = 0; e < edges.size(); ++e) {
    offsets[edges[e].edge.tail + 1].partial += static_cast<int>(
        plan.plan_for(static_cast<int>(e)).agg_destinations.size());
  }
  for (const Task& task : forest.tasks()) {
    ++offsets[task.destination + 1].partial;
  }
  for (int n = 0; n < node_count; ++n) {
    offsets[n + 1].partial += offsets[n].partial;
    cursor[n] = offsets[n].partial;
  }
  compiled.partial_.resize(offsets[node_count].partial);
  for (size_t e = 0; e < edges.size(); ++e) {
    const NodeId n = edges[e].edge.tail;
    for (NodeId d : plan.plan_for(static_cast<int>(e)).agg_destinations) {
      const int expected = contribution_count(n, d);
      M2M_CHECK(expected > 0) << "partial for " << d << " at node " << n
                              << " has no contributions";
      compiled.partial_[cursor[n]++] = PartialTableEntry{
          d, expected, local_message(static_cast<int>(e), true, d)};
    }
  }
  for (const Task& task : forest.tasks()) {
    const NodeId d = task.destination;
    const int expected = contribution_count(d, d);
    M2M_CHECK(expected > 0)
        << "destination " << d << " receives no contributions";
    compiled.partial_[cursor[d]++] = PartialTableEntry{d, expected, -1};
  }

  compiled.plan_ = std::make_shared<const GlobalPlan>(std::move(plan));
  return compiled;
}

NodeStateView CompiledPlan::state(NodeId node) const {
  M2M_CHECK(node >= 0 && node < node_count());
  const TableOffsets& at = offsets_[node];
  const TableOffsets& end = offsets_[node + 1];
  return NodeStateView{
      std::span(raw_).subspan(at.raw, end.raw - at.raw),
      std::span(preagg_).subspan(at.preagg, end.preagg - at.preagg),
      std::span(partial_).subspan(at.partial, end.partial - at.partial),
      std::span(outgoing_).subspan(at.outgoing, end.outgoing - at.outgoing),
      is_destination_[node] != 0};
}

StateTotals CompiledPlan::ComputeStateTotals() const {
  StateTotals totals;
  totals.raw_entries = static_cast<int64_t>(raw_.size());
  totals.preagg_entries = static_cast<int64_t>(preagg_.size());
  totals.partial_entries = static_cast<int64_t>(partial_.size());
  totals.outgoing_entries = static_cast<int64_t>(outgoing_.size());
  totals.evaluator_entries =
      std::count(is_destination_.begin(), is_destination_.end(), 1);
  // |T_s| and |A_d| count distinct physical nodes: `stamp[n] == tree`
  // marks n as counted in the current tree.
  const MulticastForest& forest = plan_->forest();
  std::vector<int> stamp(forest.node_count(), -1);
  int tree = -1;
  auto count_node = [&](NodeId n) -> int64_t {
    if (stamp[n] == tree) return 0;
    stamp[n] = tree;
    return 1;
  };
  auto count_edge = [&](int index) {
    int64_t added = 0;
    for (NodeId n : forest.edges()[index].segment) added += count_node(n);
    return added;
  };
  for (NodeId s : forest.source_ids()) {
    ++tree;
    totals.sum_multicast_tree_sizes += count_node(s);
    for (int index : forest.TreeEdges(s)) {
      totals.sum_multicast_tree_sizes += count_edge(index);
    }
  }
  // Destinations are unique per task, so each task is one aggregation tree.
  for (const Task& task : forest.tasks()) {
    ++tree;
    const NodeId d = task.destination;
    totals.sum_aggregation_tree_sizes += count_node(d);
    for (NodeId s : task.sources) {
      for (int index : forest.Route(SourceDestPair{s, d})) {
        totals.sum_aggregation_tree_sizes += count_edge(index);
      }
    }
  }
  return totals;
}

}  // namespace m2m
