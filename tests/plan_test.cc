#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "agg/partial_record.h"
#include "common/relation.h"
#include "common/rng.h"
#include "plan/consistency.h"
#include "plan/dissemination.h"
#include "plan/node_tables.h"
#include "plan/serialization.h"
#include "plan/planner.h"
#include "topology/generator.h"
#include "workload/workload.h"

namespace m2m {
namespace {

struct TestEnvironment {
  explicit TestEnvironment(WorkloadSpec spec)
      : topology(MakeGreatDuckIslandLike()),
        paths(topology),
        workload(GenerateWorkload(topology, spec)),
        forest(std::make_shared<MulticastForest>(paths, workload.tasks)) {}

  Topology topology;
  PathSystem paths;
  Workload workload;
  std::shared_ptr<const MulticastForest> forest;
};

WorkloadSpec DefaultSpec(uint64_t seed = 21) {
  WorkloadSpec spec;
  spec.destination_count = 12;
  spec.sources_per_destination = 10;
  spec.dispersion = 0.9;
  spec.seed = seed;
  return spec;
}

PlannerOptions WithStrategy(PlanStrategy strategy) {
  PlannerOptions options;
  options.strategy = strategy;
  return options;
}

TEST(PlannerTest, EveryEdgePlanIsACover) {
  TestEnvironment env(DefaultSpec());
  GlobalPlan plan = BuildPlan(env.forest, env.workload.functions, {});
  for (size_t e = 0; e < env.forest->edges().size(); ++e) {
    const ForestEdge& edge = env.forest->edges()[e];
    const EdgePlan& edge_plan = plan.plan_for(static_cast<int>(e));
    for (const SourceDestPair& pair : edge.pairs) {
      EXPECT_TRUE(edge_plan.TransmitsRaw(pair.source) ||
                  edge_plan.TransmitsAggregate(pair.destination))
          << "uncovered pair on edge " << edge.edge.tail << "->"
          << edge.edge.head;
    }
  }
}

TEST(PlannerTest, OptimalNeverWorsePerEdgeThanBaselines) {
  TestEnvironment env(DefaultSpec());
  GlobalPlan optimal = BuildPlan(env.forest, env.workload.functions,
                                 WithStrategy(PlanStrategy::kOptimal));
  GlobalPlan multicast = BuildPlan(env.forest, env.workload.functions,
                                   WithStrategy(PlanStrategy::kMulticastOnly));
  GlobalPlan aggregation =
      BuildPlan(env.forest, env.workload.functions,
                WithStrategy(PlanStrategy::kAggregationOnly));
  for (size_t e = 0; e < env.forest->edges().size(); ++e) {
    int64_t opt = optimal.plan_for(static_cast<int>(e)).payload_bytes;
    EXPECT_LE(opt, multicast.plan_for(static_cast<int>(e)).payload_bytes);
    EXPECT_LE(opt, aggregation.plan_for(static_cast<int>(e)).payload_bytes);
  }
  EXPECT_LE(optimal.TotalPayloadBytes(), multicast.TotalPayloadBytes());
  EXPECT_LE(optimal.TotalPayloadBytes(), aggregation.TotalPayloadBytes());
}

TEST(PlannerTest, OptimalStrictlyBeatsBaselinesOnRealWorkload) {
  // With 12 weighted-average functions over dispersed sources, neither
  // trivial cover should match the optimum exactly.
  TestEnvironment env(DefaultSpec());
  GlobalPlan optimal = BuildPlan(env.forest, env.workload.functions, {});
  GlobalPlan multicast = BuildPlan(env.forest, env.workload.functions,
                                   WithStrategy(PlanStrategy::kMulticastOnly));
  GlobalPlan aggregation =
      BuildPlan(env.forest, env.workload.functions,
                WithStrategy(PlanStrategy::kAggregationOnly));
  EXPECT_LT(optimal.TotalPayloadBytes(), multicast.TotalPayloadBytes());
  EXPECT_LT(optimal.TotalPayloadBytes(), aggregation.TotalPayloadBytes());
}

TEST(PlannerTest, MulticastPlanSendsEverythingRaw) {
  TestEnvironment env(DefaultSpec());
  GlobalPlan plan = BuildPlan(env.forest, env.workload.functions,
                              WithStrategy(PlanStrategy::kMulticastOnly));
  for (size_t e = 0; e < env.forest->edges().size(); ++e) {
    EXPECT_TRUE(plan.plan_for(static_cast<int>(e)).agg_destinations.empty());
  }
}

TEST(PlannerTest, AggregationPlanAggregatesEverything) {
  TestEnvironment env(DefaultSpec());
  GlobalPlan plan = BuildPlan(env.forest, env.workload.functions,
                              WithStrategy(PlanStrategy::kAggregationOnly));
  for (size_t e = 0; e < env.forest->edges().size(); ++e) {
    EXPECT_TRUE(plan.plan_for(static_cast<int>(e)).raw_sources.empty());
  }
}

// Theorem 1: independently optimal per-edge covers form a consistent global
// plan.
TEST(ConsistencyTest, OptimalPlanIsConsistentAcrossSeeds) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    TestEnvironment env(DefaultSpec(seed));
    GlobalPlan plan = BuildPlan(env.forest, env.workload.functions, {});
    std::vector<std::string> violations = FindConsistencyViolations(plan);
    EXPECT_TRUE(violations.empty())
        << "seed " << seed << ": " << violations.front();
  }
}

TEST(ConsistencyTest, BaselinePlansAreConsistentTrivially) {
  TestEnvironment env(DefaultSpec());
  for (PlanStrategy strategy :
       {PlanStrategy::kMulticastOnly, PlanStrategy::kAggregationOnly}) {
    GlobalPlan plan =
        BuildPlan(env.forest, env.workload.functions, WithStrategy(strategy));
    EXPECT_TRUE(ValidatePlanConsistency(plan)) << ToString(strategy);
  }
}

TEST(ConsistencyTest, DetectsRawAfterAggregateViolation) {
  TestEnvironment env(DefaultSpec());
  GlobalPlan plan = BuildPlan(env.forest, env.workload.functions, {});
  // Find a route of length >= 2 whose first edge aggregates, then force the
  // second edge to transmit the source raw.
  std::vector<EdgePlan> plans = plan.edge_plans();
  bool corrupted = false;
  for (const Task& task : env.forest->tasks()) {
    for (NodeId s : task.sources) {
      if (s == task.destination || corrupted) continue;
      const auto& route =
          env.forest->Route(SourceDestPair{s, task.destination});
      if (route.size() < 2) continue;
      if (!plans[route[0]].TransmitsRaw(s) &&
          !plans[route[1]].TransmitsRaw(s)) {
        auto& raws = plans[route[1]].raw_sources;
        raws.insert(std::lower_bound(raws.begin(), raws.end(), s), s);
        corrupted = true;
      }
    }
  }
  ASSERT_TRUE(corrupted) << "no aggregating route found to corrupt";
  GlobalPlan bad(env.forest, std::move(plans), plan.options());
  EXPECT_FALSE(ValidatePlanConsistency(bad));
}

TEST(PlannerTest, TiebreakSeedChangesOnlyTies) {
  TestEnvironment env(DefaultSpec());
  PlannerOptions a;
  a.tiebreak_seed = 111;
  PlannerOptions b;
  b.tiebreak_seed = 222;
  GlobalPlan plan_a = BuildPlan(env.forest, env.workload.functions, a);
  GlobalPlan plan_b = BuildPlan(env.forest, env.workload.functions, b);
  // Byte-optimal cost is seed-independent.
  EXPECT_EQ(plan_a.TotalPayloadBytes(), plan_b.TotalPayloadBytes());
  // And each remains individually consistent.
  EXPECT_TRUE(ValidatePlanConsistency(plan_a));
  EXPECT_TRUE(ValidatePlanConsistency(plan_b));
}

TEST(UpdatePlanTest, NoChangeReusesEverything) {
  TestEnvironment env(DefaultSpec());
  GlobalPlan plan = BuildPlan(env.forest, env.workload.functions, {});
  UpdateStats stats;
  GlobalPlan updated =
      UpdatePlan(plan, env.forest, env.workload.functions, &stats);
  EXPECT_EQ(stats.edges_reoptimized, 0);
  EXPECT_EQ(stats.edges_reused, stats.edges_total);
  EXPECT_EQ(updated.edge_plans(), plan.edge_plans());
}

TEST(UpdatePlanTest, AddingSourceTouchesOnlyItsPath) {
  TestEnvironment env(DefaultSpec());
  GlobalPlan plan = BuildPlan(env.forest, env.workload.functions, {});

  // Add a fresh source to the first destination.
  NodeId d = env.workload.tasks[0].destination;
  NodeId fresh = kInvalidNode;
  for (NodeId n = 0; n < env.topology.node_count(); ++n) {
    if (n == d) continue;
    const auto& sources = env.workload.tasks[0].sources;
    if (std::find(sources.begin(), sources.end(), n) == sources.end()) {
      fresh = n;
      break;
    }
  }
  ASSERT_NE(fresh, kInvalidNode);
  Workload updated_wl = WithSourceAdded(env.workload, fresh, d, 1.0);
  auto updated_forest =
      std::make_shared<MulticastForest>(env.paths, updated_wl.tasks);

  UpdateStats stats;
  GlobalPlan incremental =
      UpdatePlan(plan, updated_forest, updated_wl.functions, &stats);
  // Corollary 1: only edges on the new source's path to d (plus edges whose
  // pair sets changed) re-optimize; most of the network is untouched.
  int path_edges = env.paths.HopDistance(fresh, d);
  EXPECT_GT(stats.edges_reused, 0);
  EXPECT_LE(stats.edges_reoptimized,
            path_edges + static_cast<int>(updated_forest->edges().size()) -
                static_cast<int>(env.forest->edges().size()) + path_edges);
  // The incremental result must match a from-scratch rebuild exactly.
  GlobalPlan full =
      BuildPlan(updated_forest, updated_wl.functions, plan.options());
  EXPECT_EQ(incremental.edge_plans(), full.edge_plans());
  EXPECT_TRUE(ValidatePlanConsistency(incremental));
}

TEST(UpdatePlanTest, RemovingSourceMatchesRebuild) {
  TestEnvironment env(DefaultSpec());
  GlobalPlan plan = BuildPlan(env.forest, env.workload.functions, {});
  NodeId d = env.workload.tasks[0].destination;
  NodeId victim = env.workload.tasks[0].sources[0];
  Workload updated_wl = WithSourceRemoved(env.workload, victim, d);
  auto updated_forest =
      std::make_shared<MulticastForest>(env.paths, updated_wl.tasks);
  UpdateStats stats;
  GlobalPlan incremental =
      UpdatePlan(plan, updated_forest, updated_wl.functions, &stats);
  GlobalPlan full =
      BuildPlan(updated_forest, updated_wl.functions, plan.options());
  EXPECT_EQ(incremental.edge_plans(), full.edge_plans());
  EXPECT_GT(stats.edges_reused, 0);
}

// The std::set forms of the two Corollary 1 checks, kept as the reference
// the sorted-vector versions must reproduce.
std::vector<DirectedEdge> ReferenceDivergentEdgeKeys(const GlobalPlan& a,
                                                     const GlobalPlan& b) {
  std::set<DirectedEdge> keys;
  const auto& b_edges = b.forest().edges();
  for (size_t e = 0; e < b_edges.size(); ++e) {
    int a_index = a.forest().EdgeIndexOf(b_edges[e].edge);
    if (a_index < 0) {
      keys.insert(b_edges[e].edge);
      continue;
    }
    const EdgePlan& pa = a.plan_for(a_index);
    const EdgePlan& pb = b.plan_for(static_cast<int>(e));
    if (pa.raw_sources != pb.raw_sources ||
        pa.agg_destinations != pb.agg_destinations) {
      keys.insert(b_edges[e].edge);
    }
  }
  for (const ForestEdge& edge : a.forest().edges()) {
    if (b.forest().EdgeIndexOf(edge.edge) < 0) keys.insert(edge.edge);
  }
  return {keys.begin(), keys.end()};
}

std::vector<DirectedEdge> ReferenceRouteKeys(const GlobalPlan& plan,
                                             SourceDestPair pair) {
  std::vector<DirectedEdge> keys;
  for (int edge_index : plan.forest().Route(pair)) {
    keys.push_back(plan.forest().edges()[edge_index].edge);
  }
  return keys;
}

int ReferenceUnitBytes(const FunctionSet& functions, NodeId destination) {
  return kIdTagBytes + functions.Get(destination).partial_record_bytes();
}

std::vector<DirectedEdge> ReferencePredictedPerturbedEdges(
    const GlobalPlan& old_plan, const FunctionSet& old_functions,
    const GlobalPlan& new_plan, const FunctionSet& new_functions) {
  std::set<SourceDestPair> old_pairs, new_pairs;
  for (const SourceDestPair& p : TasksToPairs(old_plan.forest().tasks())) {
    old_pairs.insert(p);
  }
  for (const SourceDestPair& p : TasksToPairs(new_plan.forest().tasks())) {
    new_pairs.insert(p);
  }
  std::set<SourceDestPair> perturbed;
  for (const SourceDestPair& p : old_pairs) {
    if (!new_pairs.contains(p)) {
      perturbed.insert(p);
    } else if (ReferenceRouteKeys(old_plan, p) !=
                   ReferenceRouteKeys(new_plan, p) ||
               ReferenceUnitBytes(old_functions, p.destination) !=
                   ReferenceUnitBytes(new_functions, p.destination)) {
      perturbed.insert(p);
    }
  }
  for (const SourceDestPair& p : new_pairs) {
    if (!old_pairs.contains(p)) perturbed.insert(p);
  }
  std::set<DirectedEdge> predicted;
  for (const SourceDestPair& p : perturbed) {
    if (old_pairs.contains(p)) {
      for (const DirectedEdge& key : ReferenceRouteKeys(old_plan, p)) {
        predicted.insert(key);
      }
    }
    if (new_pairs.contains(p)) {
      for (const DirectedEdge& key : ReferenceRouteKeys(new_plan, p)) {
        predicted.insert(key);
      }
    }
  }
  for (const ForestEdge& edge : old_plan.forest().edges()) {
    if (new_plan.forest().EdgeIndexOf(edge.edge) < 0) {
      predicted.insert(edge.edge);
    }
  }
  for (const ForestEdge& edge : new_plan.forest().edges()) {
    if (old_plan.forest().EdgeIndexOf(edge.edge) < 0) {
      predicted.insert(edge.edge);
    }
  }
  return {predicted.begin(), predicted.end()};
}

// Seeded workload deltas: admitted and retired tasks, added and removed
// sources, and changed partial-unit sizes (a destination switching to a
// kind with a different partial record).
Workload RandomWorkloadDelta(const Topology& topology, Workload workload,
                             Rng& rng) {
  const int steps = 1 + static_cast<int>(rng.UniformInt(3));
  for (int step = 0; step < steps; ++step) {
    const uint64_t kind = workload.tasks.empty() ? 0 : rng.UniformInt(5);
    if (kind == 0) {
      NodeId d = static_cast<NodeId>(rng.UniformInt(topology.node_count()));
      while (std::any_of(workload.tasks.begin(), workload.tasks.end(),
                         [d](const Task& t) { return t.destination == d; })) {
        d = (d + 1) % topology.node_count();
      }
      Task task{d, {}};
      FunctionSpec spec;
      spec.kind = AggregateKind::kWeightedAverage;
      while (task.sources.size() < 4) {
        const NodeId s =
            static_cast<NodeId>(rng.UniformInt(topology.node_count()));
        if (s == d || std::find(task.sources.begin(), task.sources.end(),
                                s) != task.sources.end()) {
          continue;
        }
        task.sources.push_back(s);
        spec.weights.emplace_back(s, 1.0);
      }
      workload.tasks.push_back(task);
      workload.specs.push_back(spec);
    } else {
      const size_t i = rng.UniformInt(workload.tasks.size());
      Task& task = workload.tasks[i];
      FunctionSpec& spec = workload.specs[i];
      if (kind == 1) {
        workload.tasks.erase(workload.tasks.begin() +
                             static_cast<ptrdiff_t>(i));
        workload.specs.erase(workload.specs.begin() +
                             static_cast<ptrdiff_t>(i));
      } else if (kind == 2) {
        const NodeId s =
            static_cast<NodeId>(rng.UniformInt(topology.node_count()));
        if (s != task.destination &&
            std::find(task.sources.begin(), task.sources.end(), s) ==
                task.sources.end()) {
          task.sources.push_back(s);
          spec.weights.emplace_back(s, 1.0);
        }
      } else if (kind == 3 && task.sources.size() > 1) {
        const NodeId s = task.sources.back();
        task.sources.pop_back();
        std::erase_if(spec.weights,
                      [s](const auto& weight) { return weight.first == s; });
      } else {
        spec.kind = spec.kind == AggregateKind::kWeightedStdDev
                        ? AggregateKind::kWeightedSum
                        : AggregateKind::kWeightedStdDev;
      }
    }
  }
  workload.RebuildFunctions();
  return workload;
}

TEST(ConsistencyTest, CorollaryChecksMatchSetReference) {
  const Topology topology = MakeGreatDuckIslandLike();
  const PathSystem paths(topology);
  auto plan_of = [&](const Workload& workload) {
    return BuildPlan(std::make_shared<MulticastForest>(paths, workload.tasks),
                     workload.functions);
  };
  const Workload empty;
  const GlobalPlan empty_plan = plan_of(empty);
  int perturbed_steps = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    Workload before = GenerateWorkload(topology, DefaultSpec(seed));
    GlobalPlan before_plan = plan_of(before);
    for (int step = 0; step < 6; ++step) {
      const Workload after = RandomWorkloadDelta(topology, before, rng);
      const GlobalPlan after_plan = plan_of(after);
      const GlobalPlan* plans[] = {&before_plan, &after_plan, &empty_plan};
      const Workload* workloads[] = {&before, &after, &empty};
      for (int a = 0; a < 3; ++a) {
        for (int b = 0; b < 3; ++b) {
          EXPECT_EQ(DivergentEdgeKeys(*plans[a], *plans[b]),
                    ReferenceDivergentEdgeKeys(*plans[a], *plans[b]))
              << a << " vs " << b;
          EXPECT_EQ(
              PredictedPerturbedEdges(*plans[a], workloads[a]->functions,
                                      *plans[b], workloads[b]->functions),
              ReferencePredictedPerturbedEdges(
                  *plans[a], workloads[a]->functions, *plans[b],
                  workloads[b]->functions))
              << a << " vs " << b;
        }
      }
      perturbed_steps += !PredictedPerturbedEdges(before_plan, before.functions,
                                                  after_plan, after.functions)
                              .empty();
      before = after;
      before_plan = after_plan;
    }
  }
  // Most deltas are not no-ops (a draw may pick an existing source).
  EXPECT_GT(perturbed_steps, 60);
}

// The workload with every unreachable node removed, as the self-healing
// runtime prunes its believed workload: tasks whose destination is
// unreachable go, unreachable sources and their weights go, and tasks left
// without sources go.
Workload PrunedWorkload(const Workload& workload,
                        const std::vector<uint8_t>& unreachable) {
  Workload pruned;
  for (size_t i = 0; i < workload.tasks.size(); ++i) {
    Task task = workload.tasks[i];
    FunctionSpec spec = workload.specs[i];
    if (unreachable[task.destination] != 0) continue;
    std::erase_if(task.sources,
                  [&](NodeId s) { return unreachable[s] != 0; });
    std::erase_if(spec.weights, [&](const auto& weight) {
      return unreachable[weight.first] != 0;
    });
    if (task.sources.empty()) continue;
    pruned.tasks.push_back(std::move(task));
    pruned.specs.push_back(std::move(spec));
  }
  pruned.RebuildFunctions();
  return pruned;
}

// Every node whose image content changes is marked, and an unmarked
// node's image is its old one restamped, for seeded workload deltas
// replanned as a commit replans them (UpdatePlan over the new forest).
// Pure reorders of the task list change no edge instance and no function,
// yet move edges in the full-build order: nodes whose kept outgoing edges
// swap places change their tables with no touched incident edge. The
// routing changes a self-healing replan makes are covered too, each
// replanned with ReplanForWorkload over a new PathSystem: failed links and
// dead nodes with the workload pruned to the reachable nodes, a custom
// link cost, and the return to the full topology and workload.
TEST(DisseminationTest, PossiblyChangedNodesCoverEveryChangedImage) {
  const Topology topology = MakeGreatDuckIslandLike();
  const PathSystem paths(topology);
  int reorder_changes = 0;
  int routing_changes = 0;
  int routing_restamps = 0;
  // Returns how many nodes' image content changed, and counts the
  // participating nodes that were restamped.
  auto expect_covered = [&](const Workload& before,
                            const GlobalPlan& before_plan,
                            const Workload& after,
                            const GlobalPlan& after_plan, int* restamps) {
    const CompiledPlan old_compiled = CompiledPlan::Compile(
        before_plan, before.functions, MergePolicy::kGreedyMergePerEdge, 1);
    const CompiledPlan new_compiled = CompiledPlan::Compile(
        after_plan, after.functions, MergePolicy::kGreedyMergePerEdge, 2);
    const auto old_images = EncodeAllNodeStates(old_compiled, before.functions);
    const auto new_images = EncodeAllNodeStates(new_compiled, after.functions);
    const std::vector<uint8_t> marked = NodesWithPossiblyChangedImages(
        old_compiled, before.functions, new_compiled, after.functions);
    int changed = 0;
    for (NodeId n = 0; n < topology.node_count(); ++n) {
      changed += !ImageContentsEqual(old_images[n], new_images[n]);
      if (marked[n] != 0) continue;
      std::vector<uint8_t> restamped = old_images[n];
      RestampImageEpoch(restamped, 2);
      EXPECT_EQ(restamped, new_images[n]) << "node " << n;
      if (restamps != nullptr && new_compiled.state(n).entry_count() > 0) {
        ++*restamps;
      }
    }
    return changed;
  };
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    Workload before = GenerateWorkload(topology, DefaultSpec(seed));
    GlobalPlan before_plan =
        BuildPlan(std::make_shared<MulticastForest>(paths, before.tasks),
                  before.functions);
    for (int step = 0; step < 6; ++step) {
      const bool reorder = step % 2 == 1;
      Workload after = before;
      if (reorder) {
        std::vector<size_t> order(after.tasks.size());
        for (size_t i = 0; i < order.size(); ++i) order[i] = i;
        rng.Shuffle(order);
        for (size_t i = 0; i < order.size(); ++i) {
          after.tasks[i] = before.tasks[order[i]];
          after.specs[i] = before.specs[order[i]];
        }
        after.RebuildFunctions();
      } else {
        after = RandomWorkloadDelta(topology, before, rng);
      }
      const GlobalPlan after_plan = UpdatePlan(
          before_plan,
          std::make_shared<MulticastForest>(paths, after.tasks),
          after.functions);
      const int changed =
          expect_covered(before, before_plan, after, after_plan, nullptr);
      if (reorder) reorder_changes += changed;
      before = after;
      before_plan = after_plan;
    }

    // Failed links and dead nodes. Nodes cut off from node 0 (kept alive)
    // are unreachable like the dead ones.
    std::vector<std::pair<NodeId, NodeId>> failed_links;
    std::vector<NodeId> dead_nodes;
    for (int i = 0; i < 4; ++i) {
      const NodeId a =
          static_cast<NodeId>(rng.UniformInt(topology.node_count()));
      const std::span<const NodeId> neighbors = topology.neighbors(a);
      if (neighbors.empty()) continue;
      failed_links.emplace_back(a,
                                neighbors[rng.UniformInt(neighbors.size())]);
    }
    for (int i = 0; i < 2; ++i) {
      dead_nodes.push_back(
          1 + static_cast<NodeId>(rng.UniformInt(topology.node_count() - 1)));
    }
    const Topology masked =
        Topology::WithFailures(topology, failed_links, dead_nodes);
    const std::vector<int> reach = masked.HopDistancesFrom(0);
    std::vector<uint8_t> unreachable(topology.node_count(), 0);
    for (NodeId n = 0; n < topology.node_count(); ++n) {
      unreachable[n] = reach[n] < 0;
    }
    // A cost that differs per link, so routes bend away from hop count.
    auto link_cost = [](NodeId a, NodeId b) {
      return 1.0 + 0.5 * static_cast<double>((a + b) % 4);
    };
    const Workload full = before;
    const PathSystem masked_paths(masked);
    const PathSystem costed_paths(topology, 0x5eed, link_cost);
    const Workload pruned = PrunedWorkload(full, unreachable);
    const std::pair<const PathSystem*, const Workload*> steps[] = {
        {&masked_paths, &pruned}, {&costed_paths, &full}, {&paths, &full}};
    for (const auto& [step_paths, after] : steps) {
      const GlobalPlan after_plan = ReplanForWorkload(
          before_plan, *step_paths, after->tasks, after->functions);
      routing_changes += expect_covered(before, before_plan, *after,
                                        after_plan, &routing_restamps);
      before = *after;
      before_plan = after_plan;
    }
  }
  // The reorders did move some node's tables, and the routing changes
  // changed some images while leaving others to a restamp.
  EXPECT_GT(reorder_changes, 0);
  EXPECT_GT(routing_changes, 0);
  EXPECT_GT(routing_restamps, 0);
}

TEST(PlannerTest, PartialRecordSizesInfluenceCovers) {
  // Weighted stddev partials (12 bytes with tag) are twice as heavy as raw
  // units; the optimal plan should ship more raw than it would for
  // weighted sums (6-byte partial units with tag = 8... i.e. cheaper).
  WorkloadSpec sum_spec = DefaultSpec();
  sum_spec.kind = AggregateKind::kWeightedSum;
  WorkloadSpec stddev_spec = DefaultSpec();
  stddev_spec.kind = AggregateKind::kWeightedStdDev;
  TestEnvironment sum_env(sum_spec);
  TestEnvironment stddev_env(stddev_spec);
  GlobalPlan sum_plan =
      BuildPlan(sum_env.forest, sum_env.workload.functions, {});
  GlobalPlan stddev_plan =
      BuildPlan(stddev_env.forest, stddev_env.workload.functions, {});
  auto raw_units = [](const GlobalPlan& plan) {
    int64_t total = 0;
    for (const EdgePlan& p : plan.edge_plans()) {
      total += static_cast<int64_t>(p.raw_sources.size());
    }
    return total;
  };
  // Same relation (same seed), heavier partials => at least as many raws.
  EXPECT_GE(raw_units(stddev_plan), raw_units(sum_plan));
}

TEST(PlannerTest, ToStringCoversStrategies) {
  EXPECT_EQ(ToString(PlanStrategy::kOptimal), "optimal");
  EXPECT_EQ(ToString(PlanStrategy::kMulticastOnly), "multicast");
  EXPECT_EQ(ToString(PlanStrategy::kAggregationOnly), "aggregation");
}

TEST(PlannerTest, TotalPhysicalPayloadWeighsHops) {
  // With milestones disabled (all nodes), physical == logical payload.
  TestEnvironment env(DefaultSpec());
  GlobalPlan plan = BuildPlan(env.forest, env.workload.functions, {});
  EXPECT_EQ(plan.TotalPayloadBytes(), plan.TotalPhysicalPayloadBytes());
}

}  // namespace
}  // namespace m2m
