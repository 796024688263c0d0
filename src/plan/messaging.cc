#include "plan/messaging.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "agg/partial_record.h"
#include "common/check.h"
#include "common/grouping.h"

namespace m2m {

namespace {

// Buffers for Kahn passes, kept across the passes of one Build.
struct KahnBuffers {
  std::vector<int> unmet;  // #unmet dependencies
  std::vector<int> dependents_begin;
  std::vector<int> dependents;
  std::vector<int> cursor;
  std::vector<int> order;  // Doubles as the FIFO of ready nodes.
};

// Kahn's algorithm over `node_count` nodes. `for_each_arc(arc)` calls
// arc(waiter, dependency) once per arc; repeated arcs are allowed. Leaves a
// topological order in `buffers.order` and returns true, or returns false
// if the graph has a cycle. Each node's dependents are released in arc
// order.
template <typename ForEachArc>
bool TopoOrder(int node_count, const ForEachArc& for_each_arc,
               KahnBuffers& buffers) {
  std::vector<int>& unmet = buffers.unmet;
  std::vector<int>& dependents_begin = buffers.dependents_begin;
  std::vector<int>& dependents = buffers.dependents;
  std::vector<int>& cursor = buffers.cursor;
  std::vector<int>& order = buffers.order;
  unmet.assign(node_count, 0);
  dependents_begin.assign(node_count + 1, 0);
  for_each_arc([&](int waiter, int dependency) {
    ++unmet[waiter];
    ++dependents_begin[dependency + 1];
  });
  for (int v = 0; v < node_count; ++v) {
    dependents_begin[v + 1] += dependents_begin[v];
  }
  dependents.resize(dependents_begin[node_count]);
  cursor.assign(dependents_begin.begin(), dependents_begin.end() - 1);
  for_each_arc([&](int waiter, int dependency) {
    dependents[cursor[dependency]++] = waiter;
  });
  order.clear();
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
  return static_cast<int>(order.size()) == node_count;
}

// The unit wait-for graph as an offset array: unit v waits for the units
// upstream[begin[v], begin[v + 1]).
struct WaitGraph {
  std::span<const int> begin;
  std::span<const int> upstream;

  int unit_count() const { return static_cast<int>(begin.size()) - 1; }
};

// True iff `graph`, lifted to groups by `group_of(unit)` (ids below
// `group_count`; arcs within one group are dropped), is acyclic. On success
// `buffers.order` holds a topological order of the groups.
template <typename GroupOf>
bool LiftedGraphAcyclic(const WaitGraph& graph, int group_count,
                        const GroupOf& group_of, KahnBuffers& buffers) {
  auto arcs = [&](const auto& arc) {
    for (int v = 0; v < graph.unit_count(); ++v) {
      const int group = group_of(v);
      for (int i = graph.begin[v]; i < graph.begin[v + 1]; ++i) {
        const int dependency = group_of(graph.upstream[i]);
        if (dependency != group) arc(group, dependency);
      }
    }
  };
  return TopoOrder(group_count, arcs, buffers);
}

int SameUnit(int unit) { return unit; }

// The pairwise fallback's message graph. A message is a set of units of one
// edge, named by its smallest unit id; its arcs are the unit wait-for arcs
// leaving its units. Units start as one message each, so the graph starts as
// the (acyclic) unit graph, and a merge is made only when it keeps the graph
// acyclic.
class PairwiseMerger {
 public:
  explicit PairwiseMerger(const WaitGraph& graph) : graph_(graph) {
    const int unit_count = graph.unit_count();
    message_.resize(unit_count);
    std::iota(message_.begin(), message_.end(), 0);
    next_unit_.assign(unit_count, -1);
    last_unit_ = message_;
    seen_.assign(unit_count, -1);
  }

  int message_of(int unit) const { return message_[unit]; }

  // True iff merging messages a and b closes a cycle. The graph is acyclic,
  // so that happens iff one of them reaches the other through a third
  // message: iff some message other than a and b that a or b waits for
  // reaches a or b. Direct arcs between a and b become internal instead.
  bool MergeClosesCycle(int a, int b) {
    ++search_;
    seen_[a] = search_;
    seen_[b] = search_;
    stack_.clear();
    // Pushes the unseen messages that m waits for; true iff m waits for a
    // or b.
    auto expand = [&](int m) {
      bool waits_for_pair = false;
      for (int x = m; x >= 0; x = next_unit_[x]) {
        for (int i = graph_.begin[x]; i < graph_.begin[x + 1]; ++i) {
          const int target = message_[graph_.upstream[i]];
          waits_for_pair = waits_for_pair || target == a || target == b;
          if (seen_[target] != search_) {
            seen_[target] = search_;
            stack_.push_back(target);
          }
        }
      }
      return waits_for_pair;
    };
    expand(a);
    expand(b);
    while (!stack_.empty()) {
      const int m = stack_.back();
      stack_.pop_back();
      if (expand(m)) return true;
    }
    return false;
  }

  // Merges message b into message a (a < b, so a still names the result).
  void Merge(int a, int b) {
    for (int x = b; x >= 0; x = next_unit_[x]) message_[x] = a;
    next_unit_[last_unit_[a]] = b;
    last_unit_[a] = last_unit_[b];
  }

 private:
  const WaitGraph& graph_;
  std::vector<int> message_;    // unit -> message
  std::vector<int> next_unit_;  // unit -> next unit of its message, or -1
  std::vector<int> last_unit_;  // message -> its last unit in next_unit_
  std::vector<int> seen_;       // message -> last search that reached it
  int search_ = 0;
  std::vector<int> stack_;
};

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
  // (unit, upstream unit) pairs, one per route hop after the first. Grouped
  // by unit, they list each unit's upstream units in ascending order.
  size_t hop_pairs = 0;
  for (const Task& task : forest.tasks()) {
    for (NodeId s : task.sources) {
      if (s == task.destination) continue;
      hop_pairs +=
          forest.Route(SourceDestPair{s, task.destination}).size() - 1;
    }
  }
  std::vector<std::pair<int, int>> waits;
  waits.reserve(hop_pairs);
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
  schedule.wait_for_begin_.resize(unit_count + 1);
  GroupSortUnique(
      waits, unit_count,
      [&](int u) -> int& { return schedule.wait_for_begin_[u]; },
      schedule.wait_for_units_);
  const WaitGraph graph{schedule.wait_for_begin_, schedule.wait_for_units_};
  KahnBuffers kahn;
  M2M_CHECK(LiftedGraphAcyclic(graph, unit_count, SameUnit, kahn))
      << "Theorem 2 violated: wait-for cycle among message units";

  // 3. Pack units into messages: set every unit's message, numbering
  // messages in order of first use, and each message's edge.
  schedule.message_of_unit_.resize(unit_count);
  std::vector<int>& message_of_unit = schedule.message_of_unit_;
  std::vector<int>& message_edge = schedule.message_edge_;
  auto edge_of = [&](int u) { return schedule.units_[u].edge_index; };
  if (policy == MergePolicy::kOneUnitPerMessage) {
    message_edge.resize(unit_count);
    for (int u = 0; u < unit_count; ++u) {
      message_of_unit[u] = u;
      message_edge[u] = edge_of(u);
    }
  } else if (LiftedGraphAcyclic(graph, edge_count, edge_of, kahn)) {
    // Greedy merge, fast path: contracting all units of each edge into one
    // message is usually acyclic (but not always, see MergePolicy).
    // Edges with no units get no message.
    message_edge.reserve(edge_count);
    for (int e = 0; e < edge_count; ++e) {
      const auto edge_units = schedule.units_on_edge(e);
      if (edge_units.empty()) continue;
      for (int u : edge_units) {
        message_of_unit[u] = static_cast<int>(message_edge.size());
      }
      message_edge.push_back(e);
    }
  } else {
    // Pairwise greedy: start one message per unit; repeatedly merge two
    // messages on the same edge when the merged graph stays acyclic,
    // trying pairs in order of first use and starting over after each
    // merge.
    PairwiseMerger merger(graph);
    std::vector<int> edge_messages;
    for (int e = 0; e < edge_count; ++e) {
      const auto edge_units = schedule.units_on_edge(e);
      bool progress = true;
      while (progress) {
        progress = false;
        // Distinct messages on this edge in order of first use: a message
        // is named by its smallest unit.
        edge_messages.clear();
        for (int u : edge_units) {
          if (merger.message_of(u) == u) edge_messages.push_back(u);
        }
        for (size_t a = 0; a < edge_messages.size() && !progress; ++a) {
          for (size_t b = a + 1; b < edge_messages.size() && !progress;
               ++b) {
            if (!merger.MergeClosesCycle(edge_messages[a],
                                         edge_messages[b])) {
              merger.Merge(edge_messages[a], edge_messages[b]);
              progress = true;
            }
          }
        }
      }
    }
    // Compact message ids in order of first use.
    std::vector<int> compact(unit_count, -1);
    for (int u = 0; u < unit_count; ++u) {
      int& message = compact[merger.message_of(u)];
      if (message < 0) {
        message = static_cast<int>(message_edge.size());
        message_edge.push_back(edge_of(u));
      }
      message_of_unit[u] = message;
    }
  }
  // Each message's units, ascending: one counting pass, filled back to
  // front.
  const int message_count = static_cast<int>(message_edge.size());
  std::vector<int>& unit_begin = schedule.message_unit_begin_;
  unit_begin.assign(message_count + 1, 0);
  for (int u = 0; u < unit_count; ++u) ++unit_begin[message_of_unit[u]];
  for (int m = 0; m < message_count; ++m) unit_begin[m + 1] += unit_begin[m];
  schedule.message_units_.resize(unit_count);
  for (int u = unit_count - 1; u >= 0; --u) {
    schedule.message_units_[--unit_begin[message_of_unit[u]]] = u;
  }
  M2M_CHECK(LiftedGraphAcyclic(
      graph, message_count, [&](int u) { return message_of_unit[u]; },
      kahn));
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

std::span<const int> MessageSchedule::wait_for(int unit_id) const {
  M2M_CHECK(unit_id >= 0 &&
            unit_id + 1 < static_cast<int>(wait_for_begin_.size()));
  return std::span<const int>(wait_for_units_)
      .subspan(wait_for_begin_[unit_id],
               wait_for_begin_[unit_id + 1] - wait_for_begin_[unit_id]);
}

MessageSchedule::Message MessageSchedule::message(int message_id) const {
  M2M_CHECK(message_id >= 0 &&
            message_id < static_cast<int>(message_edge_.size()));
  const int begin = message_unit_begin_[message_id];
  return Message{message_edge_[message_id],
                 std::span<const int>(message_units_)
                     .subspan(begin,
                              message_unit_begin_[message_id + 1] - begin)};
}

bool MessageSchedule::UnitsAcyclic() const {
  KahnBuffers kahn;
  return LiftedGraphAcyclic(WaitGraph{wait_for_begin_, wait_for_units_},
                            static_cast<int>(units_.size()), SameUnit, kahn);
}

std::vector<int> MessageSchedule::TopologicalUnitOrder() const {
  KahnBuffers kahn;
  M2M_CHECK(LiftedGraphAcyclic(WaitGraph{wait_for_begin_, wait_for_units_},
                               static_cast<int>(units_.size()), SameUnit,
                               kahn))
      << "wait-for cycle among units";
  return std::move(kahn.order);
}

bool MessageSchedule::MessagesAcyclic() const {
  KahnBuffers kahn;
  return LiftedGraphAcyclic(
      WaitGraph{wait_for_begin_, wait_for_units_},
      static_cast<int>(message_edge_.size()),
      [&](int u) { return message_of_unit_[u]; }, kahn);
}

}  // namespace m2m
