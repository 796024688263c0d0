#include "sim/failure.h"

#include <algorithm>
#include <queue>

#include "common/check.h"

namespace m2m {

namespace {

// BFS over live links; returns the path a..b inclusive, or empty if
// disconnected.
std::vector<NodeId> LivePath(const Topology& live, NodeId a, NodeId b) {
  if (a == b) return {a};
  std::vector<NodeId> parent(live.node_count(), kInvalidNode);
  std::queue<NodeId> frontier;
  parent[a] = a;
  frontier.push(a);
  while (!frontier.empty()) {
    NodeId u = frontier.front();
    frontier.pop();
    for (NodeId v : live.neighbors(u)) {
      if (parent[v] != kInvalidNode) continue;
      parent[v] = u;
      if (v == b) {
        std::vector<NodeId> path;
        for (NodeId cursor = b; cursor != a; cursor = parent[cursor]) {
          path.push_back(cursor);
        }
        path.push_back(a);
        std::reverse(path.begin(), path.end());
        return path;
      }
      frontier.push(v);
    }
  }
  return {};
}

}  // namespace

Topology SampleLinkFailures(const Topology& topology,
                            const LinkStabilityModel& model, Rng& rng) {
  std::vector<std::pair<NodeId, NodeId>> down;
  for (NodeId a = 0; a < topology.node_count(); ++a) {
    for (NodeId b : topology.neighbors(a)) {
      if (b < a) continue;
      if (!rng.Bernoulli(model.stability(a, b))) down.emplace_back(a, b);
    }
  }
  return Topology::WithFailures(topology, down, {});
}

FailureRoundResult RunRoundWithFailures(const CompiledPlan& compiled,
                                        const FunctionSet& functions,
                                        const Topology& live,
                                        const EnergyModel& energy,
                                        const RedundancyOptions& redundancy) {
  const GlobalPlan& plan = compiled.plan();
  const MulticastForest& forest = plan.forest();
  const MessageSchedule& schedule = compiled.schedule();
  FailureRoundResult result;

  // Per forest edge: can this round's message cross, and at what hop cost?
  std::vector<bool> edge_delivered(forest.edges().size(), false);
  std::vector<int> edge_live_hops(forest.edges().size(), 0);
  for (size_t e = 0; e < forest.edges().size(); ++e) {
    const ForestEdge& edge = forest.edges()[e];
    if (edge.segment.size() == 2) {
      // Physical one-hop edge: pinned, no rerouting possible — unless a
      // backup relay is installed and its two links are up.
      edge_delivered[e] = live.AreNeighbors(edge.edge.tail, edge.edge.head);
      edge_live_hops[e] = 1;
      if (!edge_delivered[e] && redundancy.backup_relay) {
        // Deterministic backup: the smallest-id common live neighbor.
        for (NodeId k : live.neighbors(edge.edge.tail)) {
          if (live.AreNeighbors(k, edge.edge.head)) {
            edge_delivered[e] = true;
            edge_live_hops[e] = 2;
            break;
          }
        }
      }
    } else {
      std::vector<NodeId> path =
          LivePath(live, edge.edge.tail, edge.edge.head);
      edge_delivered[e] = !path.empty();
      edge_live_hops[e] =
          path.empty() ? 1 : static_cast<int>(path.size()) - 1;
    }
  }

  // Charge messages. A message only exists if all upstream inputs arrived;
  // for the energy comparison we use the simpler pessimistic model where a
  // node still attempts its transmission with whatever it has.
  for (const MessageSchedule::Message& message : schedule.messages()) {
    int payload = 0;
    for (int u : message.unit_ids) {
      payload += schedule.units()[u].unit_bytes;
    }
    result.messages_attempted += 1;
    if (edge_delivered[message.edge_index]) {
      result.messages_delivered += 1;
      result.energy_mj += edge_live_hops[message.edge_index] *
                          energy.UnicastHopUj(payload) / 1000.0;
    } else {
      // One failed attempt: TX burned, nobody decodes.
      result.energy_mj += energy.TxUj(payload) / 1000.0;
    }
  }

  // A destination is complete iff every edge on every route to it delivered.
  (void)functions;
  for (const Task& task : forest.tasks()) {
    bool complete = true;
    for (NodeId s : task.sources) {
      if (s == task.destination) continue;
      bool route_ok = true;
      for (int e : forest.Route(SourceDestPair{s, task.destination})) {
        if (!edge_delivered[e]) {
          route_ok = false;
          break;
        }
      }
      result.contributions_total += 1;
      if (route_ok) {
        result.contributions_delivered += 1;
      } else {
        complete = false;
      }
    }
    result.destinations_total += 1;
    if (complete) result.destinations_complete += 1;
  }
  return result;
}

}  // namespace m2m
