#include "plan/dissemination.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "plan/messaging.h"
#include "plan/serialization.h"

namespace m2m {

namespace {

// Packets needed for an image of `bytes` bytes.
int64_t PacketCount(size_t bytes) {
  return static_cast<int64_t>(
      (bytes + kDisseminationPacketPayloadBytes - 1) /
      kDisseminationPacketPayloadBytes);
}

// Charges shipping one node image from the base station to `node`.
void ChargeImage(const PathSystem& paths, NodeId base_station, NodeId node,
                 size_t image_bytes, const EnergyModel& energy,
                 DisseminationCost& cost) {
  cost.nodes_updated += 1;
  cost.state_bytes += static_cast<int64_t>(image_bytes);
  if (node == base_station) return;  // Installed locally for free.
  int hops = paths.HopDistance(base_station, node);
  size_t remaining = image_bytes;
  while (remaining > 0) {
    int payload = static_cast<int>(
        remaining > kDisseminationPacketPayloadBytes
            ? kDisseminationPacketPayloadBytes
            : remaining);
    remaining -= payload;
    cost.packets += hops;
    cost.energy_mj += hops * energy.UnicastHopUj(payload) / 1000.0;
  }
  // Zero-byte images (possible only for empty states, filtered by callers)
  // would ship nothing.
  M2M_CHECK_GT(PacketCount(image_bytes), 0);
}

/// True iff every message of the plan's schedule carries all units of its
/// edge: one message per edge, numbered in edge order.
bool OneMessagePerEdge(const CompiledPlan& compiled) {
  const MessageSchedule& schedule = compiled.schedule();
  for (const MessageSchedule::Message& message : schedule.messages()) {
    if (message.unit_ids.size() !=
        schedule.units_on_edge(message.edge_index).size()) {
      return false;
    }
  }
  return true;
}

/// True iff destination d's function encodes alike in both sets for the
/// given (equal) sources: kind, parameter and every pre-aggregation weight.
bool SameFunction(const FunctionSet& a, const FunctionSet& b, NodeId d,
                  const std::vector<NodeId>& sources) {
  const AggregateFunction& fa = a.Get(d);
  const AggregateFunction& fb = b.Get(d);
  if (fa.kind() != fb.kind() || fa.Parameter() != fb.Parameter()) {
    return false;
  }
  for (NodeId s : sources) {
    if (fa.WeightFor(s) != fb.WeightFor(s)) return false;
  }
  return true;
}

}  // namespace

DisseminationCost ComputeFullDissemination(const CompiledPlan& compiled,
                                           const FunctionSet& functions,
                                           const PathSystem& paths,
                                           NodeId base_station,
                                           const EnergyModel& energy) {
  DisseminationCost cost;
  std::vector<std::vector<uint8_t>> images =
      EncodeAllNodeStates(compiled, functions);
  for (NodeId n = 0; n < compiled.node_count(); ++n) {
    if (compiled.state(n).entry_count() == 0) continue;
    ChargeImage(paths, base_station, n, images[n].size(), energy, cost);
  }
  return cost;
}

DisseminationCost ComputeIncrementalDissemination(
    const CompiledPlan& old_compiled, const FunctionSet& old_functions,
    const CompiledPlan& new_compiled, const FunctionSet& new_functions,
    const PathSystem& paths, NodeId base_station, const EnergyModel& energy) {
  DisseminationCost cost;
  const std::vector<std::vector<uint8_t>> new_images =
      EncodeAllNodeStates(new_compiled, new_functions);
  // Content comparison: an epoch advance alone does not re-ship tables.
  for (const NodeImageDelta& delta : DiffNodeImages(
           EncodeAllNodeStates(old_compiled, old_functions), new_images)) {
    if (!delta.ship_image) continue;
    // A node that dropped out of the plan gets a (1-byte) clear command.
    const bool cleared = new_compiled.state(delta.node).entry_count() == 0;
    ChargeImage(paths, base_station, delta.node,
                cleared ? 1 : new_images[delta.node].size(), energy, cost);
  }
  return cost;
}

std::vector<uint8_t> NodesWithPossiblyChangedImages(
    const CompiledPlan& old_compiled, const FunctionSet& old_functions,
    const CompiledPlan& new_compiled, const FunctionSet& new_functions) {
  M2M_CHECK_EQ(old_compiled.node_count(), new_compiled.node_count());
  const int node_count = new_compiled.node_count();
  if (!OneMessagePerEdge(old_compiled) || !OneMessagePerEdge(new_compiled)) {
    return std::vector<uint8_t>(node_count, 1);
  }
  std::vector<uint8_t> marked(node_count, 0);
  const GlobalPlan& old_plan = old_compiled.plan();
  const GlobalPlan& new_plan = new_compiled.plan();
  const MulticastForest& old_forest = old_plan.forest();
  const MulticastForest& new_forest = new_plan.forest();
  auto mark_edge = [&marked](DirectedEdge key) {
    marked[key.tail] = 1;
    marked[key.head] = 1;
  };
  // Edges in one plan only, and edges whose instance changed (UpdatePlan
  // re-solved them).
  std::vector<int> old_index(new_forest.edges().size(), -1);
  ForEachEdgeKey(old_forest, new_forest,
                 [&](DirectedEdge key, int old_edge, int new_edge) {
                   if (new_edge >= 0) old_index[new_edge] = old_edge;
                   if (old_edge < 0 || new_edge < 0 ||
                       old_plan.plan_for(old_edge).instance_signature !=
                           new_plan.plan_for(new_edge).instance_signature) {
                     mark_edge(key);
                   }
                 });
  // Tails whose kept outgoing edges changed relative order: the partial
  // table lists them, and the outgoing table their messages, in edge order.
  std::vector<int> last_old_index(node_count, -1);
  for (size_t e = 0; e < old_index.size(); ++e) {
    if (old_index[e] < 0) continue;
    const NodeId tail = new_forest.edges()[e].edge.tail;
    if (old_index[e] < last_old_index[tail]) marked[tail] = 1;
    last_old_index[tail] = old_index[e];
  }
  // Destinations whose task appeared or vanished, and destinations whose
  // function changed together with every node on their routes in either
  // plan (pre-aggregation weights and kinds, partial kinds).
  auto by_destination = [](const MulticastForest& forest) {
    std::vector<const Task*> tasks;
    tasks.reserve(forest.tasks().size());
    for (const Task& task : forest.tasks()) tasks.push_back(&task);
    std::sort(tasks.begin(), tasks.end(), [](const Task* a, const Task* b) {
      return a->destination < b->destination;
    });
    return tasks;
  };
  auto sorted_sources = [](const Task& task) {
    std::vector<NodeId> sources = task.sources;
    std::sort(sources.begin(), sources.end());
    return sources;
  };
  auto mark_routes = [&](const MulticastForest& forest, const Task& task) {
    marked[task.destination] = 1;
    for (NodeId s : task.sources) {
      for (int e : forest.Route(SourceDestPair{s, task.destination})) {
        mark_edge(forest.edges()[e].edge);
      }
    }
  };
  const std::vector<const Task*> old_tasks = by_destination(old_forest);
  const std::vector<const Task*> new_tasks = by_destination(new_forest);
  size_t i = 0;
  size_t j = 0;
  while (i < old_tasks.size() || j < new_tasks.size()) {
    if (j == new_tasks.size() ||
        (i < old_tasks.size() &&
         old_tasks[i]->destination < new_tasks[j]->destination)) {
      marked[old_tasks[i++]->destination] = 1;
    } else if (i == old_tasks.size() ||
               new_tasks[j]->destination < old_tasks[i]->destination) {
      marked[new_tasks[j++]->destination] = 1;
    } else {
      const Task& old_task = *old_tasks[i++];
      const Task& new_task = *new_tasks[j++];
      const std::vector<NodeId> sources = sorted_sources(new_task);
      if (sorted_sources(old_task) != sources ||
          !SameFunction(old_functions, new_functions, new_task.destination,
                        sources)) {
        mark_routes(old_forest, old_task);
        mark_routes(new_forest, new_task);
      }
    }
  }
  return marked;
}

std::vector<NodeImageDelta> DiffNodeImages(
    const std::vector<std::vector<uint8_t>>& old_images,
    const std::vector<std::vector<uint8_t>>& new_images) {
  M2M_CHECK_EQ(old_images.size(), new_images.size());
  // Wire image of a NodeState with no entries: epoch 0, four zero table
  // counts, is_destination = 0.
  static const std::vector<uint8_t> kEmptyImage(6, 0);
  std::vector<NodeImageDelta> deltas;
  for (size_t n = 0; n < new_images.size(); ++n) {
    const bool changed = !ImageContentsEqual(old_images[n], new_images[n]);
    const bool participates =
        !ImageContentsEqual(old_images[n], kEmptyImage) ||
        !ImageContentsEqual(new_images[n], kEmptyImage);
    if (!participates) continue;
    deltas.push_back(NodeImageDelta{static_cast<NodeId>(n), changed});
  }
  return deltas;
}

}  // namespace m2m
