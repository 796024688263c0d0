#include "plan/planner.h"

#include <algorithm>
#include <map>

#include "agg/partial_record.h"
#include "common/check.h"
#include "common/rng.h"

namespace m2m {

std::string ToString(PlanStrategy strategy) {
  switch (strategy) {
    case PlanStrategy::kOptimal:
      return "optimal";
    case PlanStrategy::kMulticastOnly:
      return "multicast";
    case PlanStrategy::kAggregationOnly:
      return "aggregation";
  }
  return "unknown";
}

GlobalPlan::GlobalPlan(std::shared_ptr<const MulticastForest> forest,
                       std::vector<EdgePlan> edge_plans,
                       PlannerOptions options)
    : forest_(std::move(forest)),
      edge_plans_(std::move(edge_plans)),
      options_(options) {
  M2M_CHECK(forest_ != nullptr);
  M2M_CHECK_EQ(edge_plans_.size(), forest_->edges().size());
}

const EdgePlan& GlobalPlan::plan_for(int edge_index) const {
  M2M_CHECK(edge_index >= 0 &&
            edge_index < static_cast<int>(edge_plans_.size()));
  return edge_plans_[edge_index];
}

int64_t GlobalPlan::TotalPayloadBytes() const {
  int64_t total = 0;
  for (const EdgePlan& p : edge_plans_) total += p.payload_bytes;
  return total;
}

int64_t GlobalPlan::TotalPhysicalPayloadBytes() const {
  int64_t total = 0;
  for (size_t i = 0; i < edge_plans_.size(); ++i) {
    total += edge_plans_[i].payload_bytes *
             forest_->edges()[i].hop_length();
  }
  return total;
}

int64_t GlobalPlan::TotalUnits() const {
  int64_t total = 0;
  for (const EdgePlan& p : edge_plans_) total += p.unit_count();
  return total;
}

namespace {

/// Byte size of one partial-record message unit for `destination`.
int PartialUnitBytes(const FunctionSet& functions, NodeId destination) {
  return kIdTagBytes + functions.Get(destination).partial_record_bytes();
}

uint64_t InstanceSignature(const ForestEdge& edge,
                           const FunctionSet& functions,
                           uint64_t tiebreak_seed) {
  uint64_t h = SplitMix64(tiebreak_seed);
  for (const SourceDestPair& pair : edge.pairs) {
    h = SplitMix64(h ^ (static_cast<uint64_t>(pair.source) << 32) ^
                   static_cast<uint32_t>(pair.destination));
    h = SplitMix64(
        h ^ static_cast<uint64_t>(PartialUnitBytes(functions,
                                                   pair.destination)));
  }
  return h;
}

}  // namespace

BipartiteInstance BuildEdgeInstance(const ForestEdge& edge,
                                    const FunctionSet& functions,
                                    uint64_t tiebreak_seed) {
  BipartiteInstance instance;
  std::map<NodeId, int> source_index;
  std::map<NodeId, int> destination_index;
  for (const SourceDestPair& pair : edge.pairs) {
    if (!source_index.contains(pair.source)) {
      source_index[pair.source] = static_cast<int>(instance.sources.size());
      instance.sources.push_back(CoverVertex{
          pair.source, PerturbedWeight(kRawUnitBytes, pair.source,
                                       /*is_destination=*/false,
                                       tiebreak_seed)});
    }
    if (!destination_index.contains(pair.destination)) {
      destination_index[pair.destination] =
          static_cast<int>(instance.destinations.size());
      instance.destinations.push_back(CoverVertex{
          pair.destination,
          PerturbedWeight(PartialUnitBytes(functions, pair.destination),
                          pair.destination, /*is_destination=*/true,
                          tiebreak_seed)});
    }
    instance.edges.emplace_back(source_index[pair.source],
                                destination_index[pair.destination]);
  }
  return instance;
}

EdgePlan SolveEdge(const ForestEdge& edge, const FunctionSet& functions,
                   const PlannerOptions& options) {
  BipartiteInstance instance =
      BuildEdgeInstance(edge, functions, options.tiebreak_seed);
  EdgePlan plan;
  plan.instance_signature =
      InstanceSignature(edge, functions, options.tiebreak_seed);
  switch (options.strategy) {
    case PlanStrategy::kOptimal: {
      CoverSolution cover = SolveMinWeightVertexCover(instance);
      for (size_t i = 0; i < instance.sources.size(); ++i) {
        if (cover.source_in_cover[i]) {
          plan.raw_sources.push_back(instance.sources[i].node);
        }
      }
      for (size_t j = 0; j < instance.destinations.size(); ++j) {
        if (cover.destination_in_cover[j]) {
          plan.agg_destinations.push_back(instance.destinations[j].node);
        }
      }
      break;
    }
    case PlanStrategy::kMulticastOnly:
      for (const CoverVertex& v : instance.sources) {
        plan.raw_sources.push_back(v.node);
      }
      break;
    case PlanStrategy::kAggregationOnly:
      for (const CoverVertex& v : instance.destinations) {
        plan.agg_destinations.push_back(v.node);
      }
      break;
  }
  // Instance vertices are inserted in pair-encounter order; the plan's
  // contract is sorted lists (EdgePlan lookups use binary search).
  std::sort(plan.raw_sources.begin(), plan.raw_sources.end());
  std::sort(plan.agg_destinations.begin(), plan.agg_destinations.end());
  plan.payload_bytes =
      static_cast<int64_t>(plan.raw_sources.size()) * kRawUnitBytes;
  for (NodeId d : plan.agg_destinations) {
    plan.payload_bytes += PartialUnitBytes(functions, d);
  }
  return plan;
}

GlobalPlan BuildPlan(std::shared_ptr<const MulticastForest> forest,
                     const FunctionSet& functions,
                     const PlannerOptions& options) {
  M2M_CHECK(forest != nullptr);
  // Theorem 1: each edge's min-weight vertex cover is an independent
  // instance, solved in edge order.
  const std::vector<ForestEdge>& edges = forest->edges();
  std::vector<EdgePlan> plans;
  plans.reserve(edges.size());
  for (const ForestEdge& edge : edges) {
    plans.push_back(SolveEdge(edge, functions, options));
  }
  return GlobalPlan(std::move(forest), std::move(plans), options);
}

GlobalPlan UpdatePlan(const GlobalPlan& old_plan,
                      std::shared_ptr<const MulticastForest> forest,
                      const FunctionSet& functions, UpdateStats* stats) {
  M2M_CHECK(forest != nullptr);
  const PlannerOptions& options = old_plan.options();
  // Old edge index of each new edge with the same milestone-level key.
  std::vector<int> old_index(forest->edges().size(), -1);
  ForEachEdgeKey(old_plan.forest(), *forest,
                 [&](DirectedEdge, int old_edge, int new_edge) {
                   if (new_edge >= 0) old_index[new_edge] = old_edge;
                 });
  UpdateStats local_stats;
  local_stats.edges_total = static_cast<int>(forest->edges().size());
  // Corollary 1 localizes the update to edges whose instance signature
  // changed; every other edge keeps its old solution.
  const std::vector<ForestEdge>& edges = forest->edges();
  std::vector<EdgePlan> plans(edges.size());
  for (size_t i = 0; i < edges.size(); ++i) {
    if (old_index[i] >= 0) {
      const EdgePlan& candidate = old_plan.edge_plans()[old_index[i]];
      if (candidate.instance_signature ==
          InstanceSignature(edges[i], functions, options.tiebreak_seed)) {
        plans[i] = candidate;
        ++local_stats.edges_reused;
        continue;
      }
    }
    plans[i] = SolveEdge(edges[i], functions, options);
    ++local_stats.edges_reoptimized;
  }
  if (stats != nullptr) *stats = local_stats;
  return GlobalPlan(std::move(forest), std::move(plans), options);
}

GlobalPlan ReplanForWorkload(const GlobalPlan& old_plan,
                             const PathSystem& paths,
                             std::vector<Task> tasks,
                             const FunctionSet& functions,
                             UpdateStats* stats) {
  // Topology and workload perturbations are symmetric under Corollary 1:
  // both reduce to rebuilding the forest and re-solving only the edges
  // whose instance signatures changed. Over unchanged routing the old
  // forest's routes stay valid, so only the changed pairs are walked; any
  // other old forest is rebuilt from empty.
  const MulticastForest& previous = old_plan.forest();
  auto forest = previous.RoutesOver(paths)
                    ? std::make_shared<MulticastForest>(previous, paths,
                                                        std::move(tasks))
                    : std::make_shared<MulticastForest>(paths,
                                                        std::move(tasks));
  return UpdatePlan(old_plan, std::move(forest), functions, stats);
}

}  // namespace m2m
