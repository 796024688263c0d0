#include "plan/messaging.h"

#include <algorithm>
#include <utility>

#include "agg/partial_record.h"
#include "common/check.h"

namespace m2m {

namespace {

// Kahn's algorithm over `node_count` nodes. `for_each_arc(arc)` calls
// arc(waiter, dependency) once per arc; repeated arcs are allowed. Returns a
// topological order, or an empty vector if the graph has a cycle (and
// `node_count` > 0). Each node's dependents are released in arc order.
template <typename ForEachArc>
std::vector<int> TopoOrder(int node_count, const ForEachArc& for_each_arc) {
  std::vector<int> unmet(node_count, 0);  // #unmet dependencies
  std::vector<int> dependents_begin(node_count + 1, 0);
  for_each_arc([&](int waiter, int dependency) {
    ++unmet[waiter];
    ++dependents_begin[dependency + 1];
  });
  for (int v = 0; v < node_count; ++v) {
    dependents_begin[v + 1] += dependents_begin[v];
  }
  std::vector<int> dependents(dependents_begin[node_count]);
  std::vector<int> cursor(dependents_begin.begin(),
                          dependents_begin.end() - 1);
  for_each_arc([&](int waiter, int dependency) {
    dependents[cursor[dependency]++] = waiter;
  });
  // `order` doubles as the FIFO of ready nodes.
  std::vector<int> order;
  order.reserve(node_count);
  for (int v = 0; v < node_count; ++v) {
    if (unmet[v] == 0) order.push_back(v);
  }
  for (size_t head = 0; head < order.size(); ++head) {
    const int u = order[head];
    for (int i = dependents_begin[u]; i < dependents_begin[u + 1]; ++i) {
      if (--unmet[dependents[i]] == 0) order.push_back(dependents[i]);
    }
  }
  if (static_cast<int>(order.size()) != node_count) return {};
  return order;
}

// Topological order of the unit wait-for graph; empty if it has a cycle.
std::vector<int> UnitOrder(const std::vector<std::vector<int>>& wait_for) {
  return TopoOrder(static_cast<int>(wait_for.size()), [&](const auto& arc) {
    for (size_t v = 0; v < wait_for.size(); ++v) {
      for (int u : wait_for[v]) arc(static_cast<int>(v), u);
    }
  });
}

}  // namespace

MessageSchedule MessageSchedule::Build(const GlobalPlan& plan,
                                       const FunctionSet& functions,
                                       MergePolicy policy) {
  MessageSchedule schedule;
  const MulticastForest& forest = plan.forest();
  const int edge_count = static_cast<int>(forest.edges().size());

  // 1. Enumerate units, edge by edge in each plan's sorted order, so that
  // UnitOf is a search within the edge's id range.
  schedule.edge_unit_begin_.reserve(edge_count + 1);
  schedule.units_.reserve(plan.TotalUnits());
  for (int e = 0; e < edge_count; ++e) {
    schedule.edge_unit_begin_.push_back(
        static_cast<int>(schedule.units_.size()));
    const EdgePlan& edge_plan = plan.plan_for(e);
    for (NodeId s : edge_plan.raw_sources) {
      schedule.units_.push_back(
          MessageUnit{e, /*is_partial=*/false, s, kRawUnitBytes});
    }
    for (NodeId d : edge_plan.agg_destinations) {
      schedule.units_.push_back(MessageUnit{
          e, /*is_partial=*/true, d,
          kIdTagBytes + functions.Get(d).partial_record_bytes()});
    }
  }
  schedule.edge_unit_begin_.push_back(
      static_cast<int>(schedule.units_.size()));
  const int unit_count = static_cast<int>(schedule.units_.size());

  // 2. Wait-for relation from consecutive edges along every route, as
  // (unit, upstream unit) pairs. Sorted and deduplicated, they list each
  // unit's upstream units in ascending order.
  std::vector<std::pair<int, int>> waits;
  for (const Task& task : forest.tasks()) {
    const NodeId d = task.destination;
    for (NodeId s : task.sources) {
      if (s == d) continue;
      const std::vector<int>& route = forest.Route(SourceDestPair{s, d});
      for (size_t i = 1; i < route.size(); ++i) {
        int prev = route[i - 1];
        int cur = route[i];
        const EdgePlan& prev_plan = plan.plan_for(prev);
        const EdgePlan& cur_plan = plan.plan_for(cur);
        // The contribution of s arrives at cur's tail either raw or inside
        // d's partial record from prev.
        int upstream_unit;
        if (prev_plan.TransmitsRaw(s)) {
          upstream_unit = schedule.UnitOf(prev, false, s);
        } else {
          M2M_CHECK(prev_plan.TransmitsAggregate(d))
              << "inconsistent plan: pair uncovered on upstream edge";
          upstream_unit = schedule.UnitOf(prev, true, d);
        }
        if (cur_plan.TransmitsRaw(s)) {
          // Raw s continues downstream: it waits for the raw copy (which
          // must exist upstream in a consistent plan). Its contribution to
          // d folds further downstream, so d's partial on this edge (if
          // any) does not wait on it.
          M2M_CHECK(prev_plan.TransmitsRaw(s))
              << "inconsistent plan: raw after aggregation";
          waits.emplace_back(schedule.UnitOf(cur, false, s), upstream_unit);
        } else {
          M2M_CHECK(cur_plan.TransmitsAggregate(d))
              << "inconsistent plan: pair uncovered";
          waits.emplace_back(schedule.UnitOf(cur, true, d), upstream_unit);
        }
      }
    }
  }
  std::sort(waits.begin(), waits.end());
  waits.erase(std::unique(waits.begin(), waits.end()), waits.end());
  schedule.wait_for_.resize(unit_count);
  for (size_t i = 0, j = 0; i < waits.size(); i = j) {
    while (j < waits.size() && waits[j].first == waits[i].first) ++j;
    std::vector<int>& upstream = schedule.wait_for_[waits[i].first];
    upstream.reserve(j - i);
    for (size_t k = i; k < j; ++k) upstream.push_back(waits[k].second);
  }
  M2M_CHECK(schedule.UnitsAcyclic())
      << "Theorem 2 violated: wait-for cycle among message units";

  // 3. Pack units into messages.
  schedule.message_of_unit_.assign(unit_count, -1);
  if (policy == MergePolicy::kOneUnitPerMessage) {
    schedule.messages_.reserve(unit_count);
    for (int u = 0; u < unit_count; ++u) {
      schedule.message_of_unit_[u] = u;
      schedule.messages_.push_back(
          Message{schedule.units_[u].edge_index, {u}});
    }
    M2M_CHECK(schedule.MessagesAcyclic());
    return schedule;
  }

  // Greedy merge. Fast path: contract all units of each edge into one
  // message; in every experiment of the paper (and ours) this is already
  // acyclic. If not, fall back to pairwise greedy merging with cycle checks.
  std::vector<int> merged_all(unit_count);
  for (int u = 0; u < unit_count; ++u) {
    merged_all[u] = schedule.units_[u].edge_index;
  }
  if (schedule.MessageGraphAcyclic(merged_all, edge_count)) {
    // Compact away edges with no units.
    for (int e = 0; e < edge_count; ++e) {
      auto edge_units = schedule.units_on_edge(e);
      if (edge_units.empty()) continue;
      const int message = static_cast<int>(schedule.messages_.size());
      schedule.messages_.push_back(
          Message{e, std::vector<int>(edge_units.begin(), edge_units.end())});
      for (int u : edge_units) schedule.message_of_unit_[u] = message;
    }
    M2M_CHECK(schedule.MessagesAcyclic());
    return schedule;
  }

  // Pairwise greedy: start one message per unit; repeatedly merge two
  // messages on the same edge when the merged graph stays acyclic.
  std::vector<int> msg_of_unit(unit_count);
  for (int u = 0; u < unit_count; ++u) msg_of_unit[u] = u;
  for (int e = 0; e < edge_count; ++e) {
    const auto edge_units = schedule.units_on_edge(e);
    bool progress = true;
    while (progress) {
      progress = false;
      // Distinct messages currently on this edge.
      std::vector<int> edge_messages;
      for (int u : edge_units) {
        if (std::find(edge_messages.begin(), edge_messages.end(),
                      msg_of_unit[u]) == edge_messages.end()) {
          edge_messages.push_back(msg_of_unit[u]);
        }
      }
      for (size_t a = 0; a < edge_messages.size() && !progress; ++a) {
        for (size_t b = a + 1; b < edge_messages.size() && !progress; ++b) {
          std::vector<int> trial = msg_of_unit;
          for (int u : edge_units) {
            if (trial[u] == edge_messages[b]) trial[u] = edge_messages[a];
          }
          if (schedule.MessageGraphAcyclic(trial, unit_count)) {
            msg_of_unit = std::move(trial);
            progress = true;
          }
        }
      }
    }
  }
  // Compact message ids in order of first use.
  std::vector<int> compact(unit_count, -1);
  for (int u = 0; u < unit_count; ++u) {
    int& message = compact[msg_of_unit[u]];
    if (message < 0) {
      message = static_cast<int>(schedule.messages_.size());
      schedule.messages_.push_back(
          Message{schedule.units_[u].edge_index, {}});
    }
    schedule.message_of_unit_[u] = message;
    schedule.messages_[message].unit_ids.push_back(u);
  }
  M2M_CHECK(schedule.MessagesAcyclic());
  return schedule;
}

std::ranges::iota_view<int, int> MessageSchedule::units_on_edge(
    int edge_index) const {
  M2M_CHECK(edge_index >= 0 &&
            edge_index + 1 < static_cast<int>(edge_unit_begin_.size()));
  return std::views::iota(edge_unit_begin_[edge_index],
                          edge_unit_begin_[edge_index + 1]);
}

int MessageSchedule::UnitOf(int edge_index, bool is_partial,
                            NodeId subject) const {
  M2M_CHECK(edge_index >= 0 &&
            edge_index + 1 < static_cast<int>(edge_unit_begin_.size()));
  const auto begin = units_.begin() + edge_unit_begin_[edge_index];
  const auto end = units_.begin() + edge_unit_begin_[edge_index + 1];
  const std::pair<bool, NodeId> key{is_partial, subject};
  const auto it = std::lower_bound(
      begin, end, key, [](const MessageUnit& unit, const auto& k) {
        return std::pair<bool, NodeId>{unit.is_partial, unit.subject} < k;
      });
  M2M_CHECK(it != end && it->is_partial == is_partial &&
            it->subject == subject)
      << "no unit for subject " << subject << " on edge " << edge_index;
  return static_cast<int>(it - units_.begin());
}

int MessageSchedule::message_of_unit(int unit_id) const {
  M2M_CHECK(unit_id >= 0 &&
            unit_id < static_cast<int>(message_of_unit_.size()));
  return message_of_unit_[unit_id];
}

bool MessageSchedule::UnitsAcyclic() const {
  return units_.empty() || !UnitOrder(wait_for_).empty();
}

std::vector<int> MessageSchedule::TopologicalUnitOrder() const {
  if (units_.empty()) return {};
  std::vector<int> order = UnitOrder(wait_for_);
  M2M_CHECK(!order.empty()) << "wait-for cycle among units";
  return order;
}

bool MessageSchedule::MessagesAcyclic() const {
  return MessageGraphAcyclic(message_of_unit_,
                             static_cast<int>(messages_.size()));
}

bool MessageSchedule::MessageGraphAcyclic(const std::vector<int>& msg_of_unit,
                                          int message_count) const {
  if (message_count == 0) return true;
  auto message_arcs = [&](const auto& arc) {
    for (size_t v = 0; v < wait_for_.size(); ++v) {
      for (int u : wait_for_[v]) {
        if (msg_of_unit[u] != msg_of_unit[v]) {
          arc(msg_of_unit[v], msg_of_unit[u]);
        }
      }
    }
  };
  return !TopoOrder(message_count, message_arcs).empty();
}

}  // namespace m2m
