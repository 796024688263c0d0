#include "plan/node_tables.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "common/check.h"

namespace m2m {

namespace {

// A contribution to destination d's partial record at `node`: either the
// result of pre-aggregating one raw value locally (kind 0, id = source), or
// a partial record arriving on one incoming edge (kind 1, id = edge index).
// Sorted and deduplicated, the records of one (node, d) form a run.
struct Contribution {
  NodeId node = kInvalidNode;
  NodeId destination = kInvalidNode;
  int kind = 0;
  int id = 0;

  friend auto operator<=>(const Contribution&, const Contribution&) = default;
};

template <typename T>
void SortUnique(std::vector<T>& records) {
  std::sort(records.begin(), records.end());
  records.erase(std::unique(records.begin(), records.end()), records.end());
}

}  // namespace

CompiledPlan CompiledPlan::Compile(GlobalPlan plan,
                                   const FunctionSet& functions,
                                   MergePolicy policy, uint32_t plan_epoch) {
  const MulticastForest& forest = plan.forest();
  MessageSchedule schedule = MessageSchedule::Build(plan, functions, policy);
  std::vector<NodeState> states(forest.node_count());

  // Flat record builders, deduplicated below. A raw value fanning out to
  // several of a node's outgoing messages needs one <s, g> entry per
  // message.
  std::vector<std::tuple<NodeId, NodeId, int>> raw_entries;  // (node, s, g)
  std::vector<Contribution> contributions;

  auto unit_message = [&](int edge_index, bool is_partial, NodeId subject) {
    return schedule.message_of_unit(
        schedule.UnitOf(edge_index, is_partial, subject));
  };

  for (const Task& task : forest.tasks()) {
    const NodeId d = task.destination;
    for (NodeId s : task.sources) {
      if (s == d) {
        // The destination pre-aggregates its own reading.
        contributions.push_back({d, d, 0, s});
        continue;
      }
      const std::vector<int>& route = forest.Route(SourceDestPair{s, d});
      bool carried_raw = true;  // The value is raw at the source itself.
      for (size_t i = 0; i < route.size(); ++i) {
        const int e = route[i];
        const NodeId n = forest.edges()[e].edge.tail;
        const EdgePlan& edge_plan = plan.plan_for(e);
        if (edge_plan.TransmitsRaw(s)) {
          M2M_CHECK(carried_raw)
              << "inconsistent plan: raw after aggregation";
          raw_entries.emplace_back(n, s, unit_message(e, false, s));
          // Value continues raw to the next node.
        } else {
          M2M_CHECK(edge_plan.TransmitsAggregate(d));
          if (carried_raw) {
            contributions.push_back({n, d, 0, s});
          } else {
            contributions.push_back({n, d, 1, route[i - 1]});
          }
          carried_raw = false;
        }
      }
      // Arrival at the destination.
      if (carried_raw) {
        contributions.push_back({d, d, 0, s});
      } else {
        contributions.push_back({d, d, 1, route.back()});
      }
    }
    states[d].is_destination = true;
  }
  SortUnique(raw_entries);
  SortUnique(contributions);

  // Count every table's final size, then reserve before filling: each
  // node's tables are allocated once, contiguously, instead of growing
  // through push_back doublings (visible at 100k-node compiles).
  std::vector<int> raw_count(states.size(), 0);
  std::vector<int> preagg_count(states.size(), 0);
  std::vector<int> partial_count(states.size(), 0);
  std::vector<int> outgoing_count(states.size(), 0);
  for (const auto& [node, source, message_id] : raw_entries) {
    ++raw_count[node];
  }
  for (const Contribution& c : contributions) {
    if (c.kind == 0) ++preagg_count[c.node];
  }
  for (size_t e = 0; e < forest.edges().size(); ++e) {
    partial_count[forest.edges()[e].edge.tail] += static_cast<int>(
        plan.plan_for(static_cast<int>(e)).agg_destinations.size());
  }
  for (const Task& task : forest.tasks()) ++partial_count[task.destination];
  for (const MessageSchedule::Message& message : schedule.messages()) {
    ++outgoing_count[forest.edges()[message.edge_index].edge.tail];
  }
  for (size_t n = 0; n < states.size(); ++n) {
    states[n].raw_table.reserve(raw_count[n]);
    states[n].preagg_table.reserve(preagg_count[n]);
    states[n].partial_table.reserve(partial_count[n]);
    states[n].outgoing_table.reserve(outgoing_count[n]);
  }

  // Raw table.
  for (const auto& [node, source, message_id] : raw_entries) {
    states[node].raw_table.push_back(RawTableEntry{source, message_id});
  }
  // Pre-aggregation table: a node pre-aggregates s for exactly the
  // destinations whose contributions at that node include {0, s}.
  for (const Contribution& c : contributions) {
    if (c.kind == 0) {
      states[c.node].preagg_table.push_back(
          PreAggTableEntry{static_cast<NodeId>(c.id), c.destination});
    }
  }
  // Number of contributions d's partial record combines at `node`.
  auto contribution_count = [&](NodeId node, NodeId d) {
    return static_cast<int>(
        std::ranges::equal_range(contributions, std::pair{node, d}, {},
                                 [](const Contribution& c) {
                                   return std::pair{c.node, c.destination};
                                 })
            .size());
  };
  // Partial aggregate table: one entry per edge-level partial unit plus one
  // per destination-local record.
  for (size_t e = 0; e < forest.edges().size(); ++e) {
    const NodeId n = forest.edges()[e].edge.tail;
    for (NodeId d : plan.plan_for(static_cast<int>(e)).agg_destinations) {
      const int expected = contribution_count(n, d);
      M2M_CHECK(expected > 0) << "partial for " << d << " at node " << n
                              << " has no contributions";
      states[n].partial_table.push_back(PartialTableEntry{
          d, expected, unit_message(static_cast<int>(e), true, d)});
    }
  }
  for (const Task& task : forest.tasks()) {
    const NodeId d = task.destination;
    const int expected = contribution_count(d, d);
    M2M_CHECK(expected > 0)
        << "destination " << d << " receives no contributions";
    states[d].partial_table.push_back(PartialTableEntry{d, expected, -1});
  }
  // Outgoing message table.
  for (size_t m = 0; m < schedule.messages().size(); ++m) {
    const MessageSchedule::Message& message = schedule.messages()[m];
    const ForestEdge& edge = forest.edges()[message.edge_index];
    states[edge.edge.tail].outgoing_table.push_back(OutgoingMessageEntry{
        static_cast<int>(m), static_cast<int>(message.unit_ids.size()),
        edge.edge.head, edge.segment});
  }

  return CompiledPlan(std::make_shared<const GlobalPlan>(std::move(plan)),
                      std::move(schedule), std::move(states), plan_epoch);
}

const NodeState& CompiledPlan::state(NodeId node) const {
  M2M_CHECK(node >= 0 && node < node_count());
  return states_[node];
}

StateTotals CompiledPlan::ComputeStateTotals() const {
  StateTotals totals;
  for (const NodeState& state : states_) {
    totals.raw_entries += static_cast<int64_t>(state.raw_table.size());
    totals.preagg_entries +=
        static_cast<int64_t>(state.preagg_table.size());
    totals.partial_entries +=
        static_cast<int64_t>(state.partial_table.size());
    totals.outgoing_entries +=
        static_cast<int64_t>(state.outgoing_table.size());
    if (state.is_destination) ++totals.evaluator_entries;
  }
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
