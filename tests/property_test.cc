#include <algorithm>
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "core/system.h"
#include "cover/bipartite_cover.h"
#include "runtime/network.h"
#include "plan/consistency.h"
#include "plan/messaging.h"
#include "sim/readings.h"
#include "topology/generator.h"
#include "workload/workload.h"

namespace m2m {
namespace {

// Randomized invariants, run over a seed sweep via TEST_P. These guard the
// paper's theorems on arbitrary workloads rather than hand-picked ones.
class RandomWorkloadProperty : public ::testing::TestWithParam<uint64_t> {
 protected:
  RandomWorkloadProperty()
      : topology_(MakeGreatDuckIslandLike()), paths_(topology_) {
    Rng rng(GetParam());
    WorkloadSpec spec;
    spec.destination_count = 4 + static_cast<int>(rng.UniformInt(12));
    spec.sources_per_destination = 3 + static_cast<int>(rng.UniformInt(15));
    spec.dispersion = rng.UniformDouble();
    spec.max_hops = 1 + static_cast<int>(rng.UniformInt(5));
    spec.kind = rng.Bernoulli(0.5) ? AggregateKind::kWeightedAverage
                                   : AggregateKind::kWeightedSum;
    spec.seed = GetParam() * 13 + 1;
    workload_ = GenerateWorkload(topology_, spec);
    forest_ = std::make_shared<MulticastForest>(paths_, workload_.tasks);
  }

  Topology topology_;
  PathSystem paths_;
  Workload workload_;
  std::shared_ptr<const MulticastForest> forest_;
};

TEST_P(RandomWorkloadProperty, Theorem1ConsistencyHolds) {
  GlobalPlan plan = BuildPlan(forest_, workload_.functions, {});
  std::vector<std::string> violations = FindConsistencyViolations(plan);
  EXPECT_TRUE(violations.empty()) << violations.front();
}

TEST_P(RandomWorkloadProperty, OptimalNeverExceedsEitherBaselinePerEdge) {
  PlannerOptions multicast;
  multicast.strategy = PlanStrategy::kMulticastOnly;
  PlannerOptions aggregation;
  aggregation.strategy = PlanStrategy::kAggregationOnly;
  GlobalPlan opt = BuildPlan(forest_, workload_.functions, {});
  GlobalPlan mc = BuildPlan(forest_, workload_.functions, multicast);
  GlobalPlan agg = BuildPlan(forest_, workload_.functions, aggregation);
  for (size_t e = 0; e < forest_->edges().size(); ++e) {
    int64_t o = opt.plan_for(static_cast<int>(e)).payload_bytes;
    EXPECT_LE(o, mc.plan_for(static_cast<int>(e)).payload_bytes);
    EXPECT_LE(o, agg.plan_for(static_cast<int>(e)).payload_bytes);
  }
}

TEST_P(RandomWorkloadProperty, Theorem2NoWaitForCycles) {
  GlobalPlan plan = BuildPlan(forest_, workload_.functions, {});
  MessageSchedule schedule = MessageSchedule::Build(
      plan, workload_.functions, MergePolicy::kGreedyMergePerEdge);
  EXPECT_TRUE(schedule.UnitsAcyclic());
  EXPECT_TRUE(schedule.MessagesAcyclic());
}

TEST_P(RandomWorkloadProperty, DistributedAggregationIsExact) {
  GlobalPlan plan = BuildPlan(forest_, workload_.functions, {});
  CompiledPlan compiled = CompiledPlan::Compile(plan, workload_.functions);
  PlanExecutor executor(std::make_shared<CompiledPlan>(compiled),
                        workload_.functions, EnergyModel{});
  ReadingGenerator gen(topology_.node_count(), GetParam() + 999);
  // RunRound CHECK-fails internally on any divergence.
  RoundResult result = executor.RunRound(gen.values());
  EXPECT_EQ(result.destination_values.size(), workload_.tasks.size());
}

TEST_P(RandomWorkloadProperty, SuppressionConvergesOverManyRounds) {
  GlobalPlan plan = BuildPlan(forest_, workload_.functions, {});
  CompiledPlan compiled = CompiledPlan::Compile(plan, workload_.functions);
  PlanExecutor executor(std::make_shared<CompiledPlan>(compiled),
                        workload_.functions, EnergyModel{});
  ReadingGenerator gen(topology_.node_count(), GetParam() + 555);
  executor.InitializeState(gen.values());
  Rng rng(GetParam());
  for (int round = 0; round < 8; ++round) {
    double p = rng.UniformDouble();
    std::vector<bool> changed = gen.Advance(p);
    OverridePolicy policy = static_cast<OverridePolicy>(rng.UniformInt(4));
    // RunSuppressedRound CHECK-fails if any maintained aggregate drifts.
    executor.RunSuppressedRound(gen.values(), changed, policy);
  }
  SUCCEED();
}

TEST_P(RandomWorkloadProperty, DistributedRuntimeMatchesAnalytic) {
  GlobalPlan plan = BuildPlan(forest_, workload_.functions, {});
  CompiledPlan compiled = CompiledPlan::Compile(plan, workload_.functions);
  PlanExecutor executor(std::make_shared<CompiledPlan>(compiled),
                        workload_.functions, EnergyModel{});
  ReadingGenerator gen(topology_.node_count(), GetParam() + 321);
  RoundResult analytic = executor.RunRound(gen.values());
  RuntimeNetwork network(compiled, workload_.functions);
  RuntimeNetwork::LossyResult distributed = network.RunRound(gen.values());
  ASSERT_EQ(distributed.destination_values.size(),
            analytic.destination_values.size());
  for (const auto& [d, value] : analytic.destination_values) {
    EXPECT_NEAR(distributed.destination_values.at(d), value,
                1e-4 * std::max(1.0, std::fabs(value)));
  }
}

TEST_P(RandomWorkloadProperty, StateBoundedByTreeSizes) {
  GlobalPlan plan = BuildPlan(forest_, workload_.functions, {});
  CompiledPlan compiled = CompiledPlan::Compile(plan, workload_.functions);
  StateTotals totals = compiled.ComputeStateTotals();
  int64_t bound = std::min(totals.sum_multicast_tree_sizes,
                           totals.sum_aggregation_tree_sizes);
  EXPECT_LE(totals.total(), 6 * bound);
}

TEST_P(RandomWorkloadProperty, MulticastTreeLeavesAreDestinations) {
  EXPECT_TRUE(forest_->CheckMinimality());
  EXPECT_TRUE(forest_->CheckSharing());
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, RandomWorkloadProperty,
                         ::testing::Range<uint64_t>(1, 13));

// Milestone sweep: Theorem 1 consistency also holds on virtual edges for
// any global milestone predicate.
class MilestoneProperty : public ::testing::TestWithParam<double> {};

TEST_P(MilestoneProperty, ConsistencyOnVirtualEdges) {
  Topology topo = MakeGreatDuckIslandLike();
  LinkStabilityModel stability(topo, 33);
  WorkloadSpec spec;
  spec.destination_count = 10;
  spec.sources_per_destination = 8;
  spec.seed = 77;
  Workload wl = GenerateWorkload(topo, spec);
  SystemOptions options;
  options.milestones =
      MilestoneSelector::StabilityThreshold(topo, stability, GetParam());
  System system(topo, wl, options);
  EXPECT_TRUE(ValidatePlanConsistency(system.plan()));
  ReadingGenerator gen(topo.node_count(), 78);
  RoundResult result = system.MakeExecutor().RunRound(gen.values());
  EXPECT_EQ(result.destination_values.size(), wl.tasks.size());
}

INSTANTIATE_TEST_SUITE_P(Thresholds, MilestoneProperty,
                         ::testing::Values(0.0, 0.82, 0.86, 0.90, 2.0));

// Brute-force check of the per-edge optimizer: on random small bipartite
// instances, the flow-based solver must return exactly the minimum found by
// enumerating all 2^(|U|+|V|) vertex subsets — and, because the weights
// carry the section 2.3 tiebreaker perturbation, that minimum must be
// *unique* (the property Theorem 1 needs for cross-edge consistency).
class ExhaustiveCoverProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExhaustiveCoverProperty, SolverMatchesExhaustiveUniqueMinimum) {
  Rng rng(GetParam() * 7919 + 17);
  const int num_sources = 1 + static_cast<int>(rng.UniformInt(5));
  const int num_destinations = 1 + static_cast<int>(rng.UniformInt(5));
  const uint64_t tiebreak_seed = GetParam() + 0xc0ffee;

  BipartiteInstance instance;
  for (int i = 0; i < num_sources; ++i) {
    const int byte_size = 1 + static_cast<int>(rng.UniformInt(40));
    instance.sources.push_back(
        {static_cast<NodeId>(100 + i),
         PerturbedWeight(byte_size, 100 + i, false, tiebreak_seed)});
  }
  for (int j = 0; j < num_destinations; ++j) {
    const int byte_size = 1 + static_cast<int>(rng.UniformInt(40));
    instance.destinations.push_back(
        {static_cast<NodeId>(200 + j),
         PerturbedWeight(byte_size, 200 + j, true, tiebreak_seed)});
  }
  for (int i = 0; i < num_sources; ++i) {
    for (int j = 0; j < num_destinations; ++j) {
      if (rng.Bernoulli(0.5)) instance.edges.emplace_back(i, j);
    }
  }
  if (instance.edges.empty()) instance.edges.emplace_back(0, 0);

  CoverSolution solution = SolveMinWeightVertexCover(instance);
  ASSERT_TRUE(IsVertexCover(instance, solution));
  EXPECT_EQ(CoverWeight(instance, solution), solution.total_weight);

  // Enumerate every subset pair; the solver's weight must be the global
  // minimum, attained by exactly one cover.
  int64_t best = -1;
  int ties = 0;
  uint32_t best_u = 0, best_v = 0;
  for (uint32_t u = 0; u < (1u << num_sources); ++u) {
    for (uint32_t v = 0; v < (1u << num_destinations); ++v) {
      bool covers = true;
      for (const auto& [s, d] : instance.edges) {
        if (!((u >> s) & 1) && !((v >> d) & 1)) {
          covers = false;
          break;
        }
      }
      if (!covers) continue;
      int64_t weight = 0;
      for (int i = 0; i < num_sources; ++i) {
        if ((u >> i) & 1) weight += instance.sources[i].weight;
      }
      for (int j = 0; j < num_destinations; ++j) {
        if ((v >> j) & 1) weight += instance.destinations[j].weight;
      }
      if (best < 0 || weight < best) {
        best = weight;
        ties = 1;
        best_u = u;
        best_v = v;
      } else if (weight == best) {
        ++ties;
      }
    }
  }
  ASSERT_GE(best, 0);
  EXPECT_EQ(solution.total_weight, best);
  EXPECT_EQ(ties, 1) << "perturbed weights failed to make the minimum unique";
  for (int i = 0; i < num_sources; ++i) {
    EXPECT_EQ(solution.source_in_cover[i], ((best_u >> i) & 1) != 0)
        << "source " << i;
  }
  for (int j = 0; j < num_destinations; ++j) {
    EXPECT_EQ(solution.destination_in_cover[j], ((best_v >> j) & 1) != 0)
        << "destination " << j;
  }

  // The byte sizes ride in the weights' high bits: the total recovered from
  // the optimal weight must match the chosen vertices' byte sizes.
  int64_t chosen_weight = 0;
  for (int i = 0; i < num_sources; ++i) {
    if (solution.source_in_cover[i]) chosen_weight += instance.sources[i].weight;
  }
  for (int j = 0; j < num_destinations; ++j) {
    if (solution.destination_in_cover[j]) {
      chosen_weight += instance.destinations[j].weight;
    }
  }
  EXPECT_EQ(WeightToBytes(chosen_weight), WeightToBytes(best));
}

INSTANTIATE_TEST_SUITE_P(SmallInstances, ExhaustiveCoverProperty,
                         ::testing::Range<uint64_t>(1, 41));

}  // namespace
}  // namespace m2m
