#include "plan/consistency.h"

#include <algorithm>
#include <sstream>

#include "agg/partial_record.h"
#include "common/relation.h"
#include "plan/serialization.h"

namespace m2m {

std::vector<std::string> FindConsistencyViolations(const GlobalPlan& plan) {
  std::vector<std::string> violations;
  const MulticastForest& forest = plan.forest();
  for (const Task& task : forest.tasks()) {
    for (NodeId s : task.sources) {
      if (s == task.destination) continue;
      const std::vector<int>& route =
          forest.Route(SourceDestPair{s, task.destination});
      bool raw_available = true;
      for (int edge_index : route) {
        const EdgePlan& edge_plan = plan.plan_for(edge_index);
        bool sends_raw = edge_plan.TransmitsRaw(s);
        bool sends_agg = edge_plan.TransmitsAggregate(task.destination);
        const ForestEdge& edge = forest.edges()[edge_index];
        if (!sends_raw && !sends_agg) {
          std::ostringstream msg;
          msg << "edge " << edge.edge.tail << "->" << edge.edge.head
              << " covers neither raw " << s << " nor aggregate "
              << task.destination;
          violations.push_back(msg.str());
        }
        if (sends_raw && !raw_available) {
          std::ostringstream msg;
          msg << "edge " << edge.edge.tail << "->" << edge.edge.head
              << " transmits source " << s
              << " raw after an upstream edge already aggregated it"
              << " (destination " << task.destination << ")";
          violations.push_back(msg.str());
        }
        raw_available = raw_available && sends_raw;
      }
    }
  }
  return violations;
}

bool ValidatePlanConsistency(const GlobalPlan& plan) {
  return FindConsistencyViolations(plan).empty();
}

namespace {

std::string EdgeLabel(const ForestEdge& edge) {
  std::ostringstream os;
  os << edge.edge.tail << "->" << edge.edge.head;
  return os.str();
}

std::string NodeList(const std::vector<NodeId>& nodes) {
  std::ostringstream os;
  os << "{";
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) os << ",";
    os << nodes[i];
  }
  os << "}";
  return os.str();
}

}  // namespace

std::vector<std::string> FindPlanDivergence(const GlobalPlan& patched,
                                            const GlobalPlan& fresh) {
  std::vector<std::string> differences;
  const auto& fresh_edges = fresh.forest().edges();
  for (size_t e = 0; e < fresh_edges.size(); ++e) {
    int patched_index = patched.forest().EdgeIndexOf(fresh_edges[e].edge);
    if (patched_index < 0) {
      differences.push_back("patched plan is missing edge " +
                            EdgeLabel(fresh_edges[e]));
      continue;
    }
    const EdgePlan& p = patched.plan_for(patched_index);
    const EdgePlan& f = fresh.plan_for(static_cast<int>(e));
    if (p.raw_sources != f.raw_sources) {
      differences.push_back("edge " + EdgeLabel(fresh_edges[e]) +
                            " raw sources differ: patched " +
                            NodeList(p.raw_sources) + " vs fresh " +
                            NodeList(f.raw_sources));
    }
    if (p.agg_destinations != f.agg_destinations) {
      differences.push_back("edge " + EdgeLabel(fresh_edges[e]) +
                            " aggregated destinations differ: patched " +
                            NodeList(p.agg_destinations) + " vs fresh " +
                            NodeList(f.agg_destinations));
    }
  }
  for (const ForestEdge& edge : patched.forest().edges()) {
    if (fresh.forest().EdgeIndexOf(edge.edge) < 0) {
      differences.push_back("patched plan has extra edge " + EdgeLabel(edge));
    }
  }
  return differences;
}

bool PlansEquivalent(const GlobalPlan& a, const GlobalPlan& b) {
  return FindPlanDivergence(a, b).empty();
}

std::vector<DirectedEdge> DivergentEdgeKeys(const GlobalPlan& a,
                                            const GlobalPlan& b) {
  // The key merge visits keys in ascending order, so the result comes out
  // sorted and deduplicated.
  std::vector<DirectedEdge> keys;
  ForEachEdgeKey(a.forest(), b.forest(),
                 [&](DirectedEdge key, int a_index, int b_index) {
                   if (a_index >= 0 && b_index >= 0) {
                     const EdgePlan& pa = a.plan_for(a_index);
                     const EdgePlan& pb = b.plan_for(b_index);
                     if (pa.raw_sources == pb.raw_sources &&
                         pa.agg_destinations == pb.agg_destinations) {
                       return;
                     }
                   }
                   keys.push_back(key);
                 });
  return keys;
}

namespace {

/// All (source, destination) pairs of a plan's tasks, ascending.
std::vector<SourceDestPair> SortedPairs(const GlobalPlan& plan) {
  std::vector<SourceDestPair> pairs = TasksToPairs(plan.forest().tasks());
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

/// True iff `pair` crosses the same milestone-level edge keys, in the same
/// order, in both plans.
bool SameRouteKeys(const GlobalPlan& a, const GlobalPlan& b,
                   SourceDestPair pair) {
  const std::vector<int>& ra = a.forest().Route(pair);
  const std::vector<int>& rb = b.forest().Route(pair);
  if (ra.size() != rb.size()) return false;
  for (size_t i = 0; i < ra.size(); ++i) {
    if (a.forest().edges()[ra[i]].edge != b.forest().edges()[rb[i]].edge) {
      return false;
    }
  }
  return true;
}

int PartialUnitBytesOf(const FunctionSet& functions, NodeId destination) {
  return kIdTagBytes + functions.Get(destination).partial_record_bytes();
}

}  // namespace

std::vector<DirectedEdge> PredictedPerturbedEdges(
    const GlobalPlan& old_plan, const FunctionSet& old_functions,
    const GlobalPlan& new_plan, const FunctionSet& new_functions) {
  const std::vector<SourceDestPair> old_pairs = SortedPairs(old_plan);
  const std::vector<SourceDestPair> new_pairs = SortedPairs(new_plan);

  // A pair perturbs its edge neighborhoods when it is inserted, deleted,
  // routed differently, or its destination's partial unit size changed
  // (the only per-pair inputs of BuildEdgeInstance). Each perturbed pair
  // contributes its route in every plan that has it.
  std::vector<DirectedEdge> predicted;
  auto add_route = [&predicted](const GlobalPlan& plan, SourceDestPair pair) {
    for (int edge_index : plan.forest().Route(pair)) {
      predicted.push_back(plan.forest().edges()[edge_index].edge);
    }
  };
  size_t i = 0;
  size_t j = 0;
  while (i < old_pairs.size() || j < new_pairs.size()) {
    if (j == new_pairs.size() ||
        (i < old_pairs.size() && old_pairs[i] < new_pairs[j])) {
      add_route(old_plan, old_pairs[i++]);
    } else if (i == old_pairs.size() || new_pairs[j] < old_pairs[i]) {
      add_route(new_plan, new_pairs[j++]);
    } else {
      const SourceDestPair pair = old_pairs[i];
      if (!SameRouteKeys(old_plan, new_plan, pair) ||
          PartialUnitBytesOf(old_functions, pair.destination) !=
              PartialUnitBytesOf(new_functions, pair.destination)) {
        add_route(old_plan, pair);
        add_route(new_plan, pair);
      }
      ++i;
      ++j;
    }
  }
  // Edges in just one forest.
  ForEachEdgeKey(old_plan.forest(), new_plan.forest(),
                 [&](DirectedEdge key, int old_index, int new_index) {
                   if (old_index < 0 || new_index < 0) predicted.push_back(key);
                 });
  std::sort(predicted.begin(), predicted.end());
  predicted.erase(std::unique(predicted.begin(), predicted.end()),
                  predicted.end());
  return predicted;
}

std::vector<std::string> FindEpochTransitionHazards(
    const CompiledPlan& old_compiled, const FunctionSet& old_functions,
    const CompiledPlan& new_compiled, const FunctionSet& new_functions) {
  std::vector<std::string> hazards;
  if (old_compiled.plan_epoch() != new_compiled.plan_epoch()) {
    return hazards;  // Distinct epochs: the runtime gate separates them.
  }
  std::vector<std::vector<uint8_t>> old_images =
      EncodeAllNodeStates(old_compiled, old_functions);
  std::vector<std::vector<uint8_t>> new_images =
      EncodeAllNodeStates(new_compiled, new_functions);
  const size_t nodes = std::min(old_images.size(), new_images.size());
  if (old_images.size() != new_images.size()) {
    std::ostringstream line;
    line << "node counts differ under one epoch: " << old_images.size()
         << " vs " << new_images.size();
    hazards.push_back(line.str());
  }
  for (size_t n = 0; n < nodes; ++n) {
    if (ImageContentsEqual(old_images[n], new_images[n])) continue;
    std::ostringstream line;
    line << "node " << n << ": tables changed but plan epoch stayed "
         << new_compiled.plan_epoch()
         << " (mixed rounds could merge records across plans)";
    hazards.push_back(line.str());
  }
  return hazards;
}

}  // namespace m2m
