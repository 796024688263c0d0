#include <memory>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "core/system.h"
#include "sim/failure.h"
#include "sim/readings.h"
#include "topology/generator.h"
#include "workload/workload.h"

namespace m2m {
namespace {

// End-to-end sweep: (strategy, aggregate kind, seed) — each combination must
// produce a consistent plan whose executor verifies all destination values.
using SweepParam = std::tuple<PlanStrategy, AggregateKind, uint64_t>;

class EndToEndSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(EndToEndSweep, PlanExecutesAndVerifies) {
  auto [strategy, kind, seed] = GetParam();
  Topology topo = MakeGreatDuckIslandLike();
  WorkloadSpec spec;
  spec.destination_count = 8;
  spec.sources_per_destination = 6;
  spec.kind = kind;
  spec.seed = seed;
  Workload wl = GenerateWorkload(topo, spec);
  SystemOptions options;
  options.planner.strategy = strategy;
  System system(topo, wl, options);
  EXPECT_TRUE(ValidatePlanConsistency(system.plan()));
  ReadingGenerator gen(topo.node_count(), seed + 1000);
  // RunRound internally CHECKs the distributed aggregates against direct
  // evaluation; reaching the assertions below means verification passed.
  RoundResult result = system.MakeExecutor().RunRound(gen.values());
  EXPECT_EQ(result.destination_values.size(), wl.tasks.size());
  EXPECT_GT(result.energy_mj, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesKindsSeeds, EndToEndSweep,
    ::testing::Combine(
        ::testing::Values(PlanStrategy::kOptimal,
                          PlanStrategy::kMulticastOnly,
                          PlanStrategy::kAggregationOnly),
        ::testing::Values(AggregateKind::kWeightedSum,
                          AggregateKind::kWeightedAverage,
                          AggregateKind::kWeightedStdDev, AggregateKind::kMin,
                          AggregateKind::kMax, AggregateKind::kCount,
                          AggregateKind::kCountAbove, AggregateKind::kArgMax),
        ::testing::Values(101u, 102u)),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return ToString(std::get<0>(info.param)) + "_" +
             ToString(std::get<1>(info.param)) + "_seed" +
             std::to_string(std::get<2>(info.param));
    });

// Topology sweep: the full pipeline works on grids, uniform and clustered
// layouts, not just the GDI-like default.
class TopologySweep : public ::testing::TestWithParam<int> {};

TEST_P(TopologySweep, PipelineRunsOnVariousTopologies) {
  Topology topo = [&]() -> Topology {
    switch (GetParam()) {
      case 0:
        return MakeGrid(8, 8, 40.0, 50.0);
      case 1:
        return MakeUniformRandom(60, Area{250.0, 250.0}, 50.0, 5);
      case 2:
        return MakeClustered(60, 5, Area{300.0, 300.0}, 25.0, 50.0, 6);
      default:
        return MakeGreatDuckIslandLike();
    }
  }();
  WorkloadSpec spec;
  spec.destination_count = 8;
  spec.sources_per_destination = 6;
  spec.seed = 300 + GetParam();
  Workload wl = GenerateWorkload(topo, spec);
  System system(topo, wl);
  ReadingGenerator gen(topo.node_count(), 17);
  RoundResult result = system.MakeExecutor().RunRound(gen.values());
  EXPECT_EQ(result.destination_values.size(), wl.tasks.size());
}

INSTANTIATE_TEST_SUITE_P(Topologies, TopologySweep,
                         ::testing::Values(0, 1, 2, 3));

TEST(DynamicAdaptationTest, PlanSurvivesWorkloadChurn) {
  // Repeatedly add and remove sources; the incrementally updated plan must
  // always equal a fresh rebuild and keep executing correctly.
  Topology topo = MakeGreatDuckIslandLike();
  PathSystem paths(topo);
  WorkloadSpec spec;
  spec.destination_count = 8;
  spec.sources_per_destination = 6;
  spec.seed = 400;
  Workload wl = GenerateWorkload(topo, spec);
  auto forest = std::make_shared<MulticastForest>(paths, wl.tasks);
  GlobalPlan plan = BuildPlan(forest, wl.functions, {});
  Rng rng(401);
  for (int step = 0; step < 6; ++step) {
    NodeId d = wl.tasks[rng.UniformInt(wl.tasks.size())].destination;
    // Find the task for d.
    const Task* task = nullptr;
    for (const Task& t : wl.tasks) {
      if (t.destination == d) task = &t;
    }
    ASSERT_NE(task, nullptr);
    if (step % 2 == 0 && task->sources.size() > 2) {
      wl = WithSourceRemoved(wl, task->sources[0], d);
    } else {
      NodeId fresh = kInvalidNode;
      for (NodeId n = 0; n < topo.node_count() && fresh == kInvalidNode;
           ++n) {
        if (n != d && std::find(task->sources.begin(), task->sources.end(),
                                n) == task->sources.end()) {
          fresh = n;
        }
      }
      ASSERT_NE(fresh, kInvalidNode);
      wl = WithSourceAdded(wl, fresh, d, 1.0);
    }
    forest = std::make_shared<MulticastForest>(paths, wl.tasks);
    UpdateStats stats;
    plan = UpdatePlan(plan, forest, wl.functions, &stats);
    GlobalPlan fresh_plan = BuildPlan(forest, wl.functions, plan.options());
    EXPECT_EQ(plan.edge_plans(), fresh_plan.edge_plans()) << "step " << step;
    EXPECT_TRUE(ValidatePlanConsistency(plan));
    EXPECT_GT(stats.edges_reused, 0) << "step " << step;
  }
  // Still executes correctly after all the churn.
  CompiledPlan compiled = CompiledPlan::Compile(plan, wl.functions);
  PlanExecutor executor(std::make_shared<CompiledPlan>(compiled),
                        wl.functions, EnergyModel{});
  ReadingGenerator gen(topo.node_count(), 402);
  RoundResult result = executor.RunRound(gen.values());
  EXPECT_EQ(result.destination_values.size(), wl.tasks.size());
}

TEST(FailureHandlingTest, AllLinksUpDeliversEverything) {
  Topology topo = MakeGreatDuckIslandLike();
  WorkloadSpec spec;
  spec.destination_count = 8;
  spec.sources_per_destination = 6;
  spec.seed = 500;
  Workload wl = GenerateWorkload(topo, spec);
  System system(topo, wl);
  FailureRoundResult result = RunRoundWithFailures(
      system.compiled(), wl.functions, topo, EnergyModel{});
  EXPECT_EQ(result.messages_delivered, result.messages_attempted);
  EXPECT_EQ(result.destinations_complete, result.destinations_total);
}

TEST(FailureHandlingTest, MilestoneRoutingSurvivesLinkFailuresBetter) {
  Topology topo = MakeGreatDuckIslandLike();
  WorkloadSpec spec;
  spec.destination_count = 10;
  spec.sources_per_destination = 8;
  spec.seed = 501;
  Workload wl = GenerateWorkload(topo, spec);
  LinkStabilityModel stability(topo, 9);

  System pinned(topo, wl);  // Every hop pinned.
  SystemOptions flexible_options;
  flexible_options.milestones =
      MilestoneSelector::StabilityThreshold(topo, stability, 0.86);
  System flexible(topo, wl, flexible_options);

  Rng rng(502);
  int64_t pinned_complete = 0;
  int64_t flexible_complete = 0;
  for (int round = 0; round < 30; ++round) {
    Topology live = SampleLinkFailures(topo, stability, rng);
    pinned_complete += RunRoundWithFailures(pinned.compiled(), wl.functions,
                                            live, EnergyModel{})
                           .destinations_complete;
    flexible_complete += RunRoundWithFailures(flexible.compiled(),
                                              wl.functions, live, EnergyModel{})
                             .destinations_complete;
  }
  // Routing flexibility between milestones must improve delivery.
  EXPECT_GT(flexible_complete, pinned_complete);
}

// Sampled transient link failures: each round reports which share of the
// (source, destination) contributions arrived, strictly between nothing
// and everything on the GDI network's flaky links.
TEST(FailureHandlingTest, SampledLinkFailuresRecordDeliveryShare) {
  Topology topo = MakeGreatDuckIslandLike();
  WorkloadSpec spec;
  spec.destination_count = 8;
  spec.sources_per_destination = 6;
  spec.seed = 604;
  Workload wl = GenerateWorkload(topo, spec);
  System system(topo, wl);
  LinkStabilityModel stability(topo, 8);
  Rng rng(8);
  int64_t delivered = 0;
  int64_t total = 0;
  for (int round = 0; round < 10; ++round) {
    FailureRoundResult result = RunRoundWithFailures(
        system.compiled(), wl.functions,
        SampleLinkFailures(topo, stability, rng), EnergyModel{});
    EXPECT_GT(result.contributions_total, 0);
    EXPECT_LE(result.contributions_delivered, result.contributions_total);
    delivered += result.contributions_delivered;
    total += result.contributions_total;
  }
  EXPECT_GT(delivered, 0);
  EXPECT_LT(delivered, total);
}

TEST(FailureHandlingTest, SingleDownLinkOnlyBreaksAffectedRoutes) {
  Topology topo = MakeGreatDuckIslandLike();
  WorkloadSpec spec;
  spec.destination_count = 6;
  spec.sources_per_destination = 5;
  spec.seed = 503;
  Workload wl = GenerateWorkload(topo, spec);
  System system(topo, wl);
  // Kill the first forest edge's physical link.
  const ForestEdge& victim = system.forest().edges()[0];
  Topology live = Topology::WithFailures(
      topo, {{victim.segment[0], victim.segment[1]}}, {});
  FailureRoundResult result = RunRoundWithFailures(
      system.compiled(), wl.functions, live, EnergyModel{});
  EXPECT_LT(result.messages_delivered, result.messages_attempted);
  EXPECT_GT(result.destinations_complete, 0);
}

TEST(FailureHandlingTest, BackupRelayImprovesDelivery) {
  Topology topo = MakeGreatDuckIslandLike();
  WorkloadSpec spec;
  spec.destination_count = 10;
  spec.sources_per_destination = 8;
  spec.seed = 504;
  Workload wl = GenerateWorkload(topo, spec);
  System system(topo, wl);
  LinkStabilityModel stability(topo, 13);
  Rng rng(505);
  int64_t plain = 0;
  int64_t redundant = 0;
  int64_t total = 0;
  RedundancyOptions with_backup;
  with_backup.backup_relay = true;
  for (int round = 0; round < 30; ++round) {
    Topology live = SampleLinkFailures(topo, stability, rng);
    FailureRoundResult base = RunRoundWithFailures(
        system.compiled(), wl.functions, live, EnergyModel{});
    FailureRoundResult backed = RunRoundWithFailures(
        system.compiled(), wl.functions, live, EnergyModel{}, with_backup);
    plain += base.contributions_delivered;
    redundant += backed.contributions_delivered;
    total += base.contributions_total;
    // Redundancy never loses deliveries on the same outcome.
    EXPECT_GE(backed.contributions_delivered, base.contributions_delivered);
    EXPECT_GE(backed.messages_delivered, base.messages_delivered);
  }
  EXPECT_GT(redundant, plain);
  EXPECT_GT(total, 0);
}

TEST(FailureHandlingTest, BackupRelaySavesSpecificDownLink) {
  Topology topo = MakeGreatDuckIslandLike();
  WorkloadSpec spec;
  spec.destination_count = 6;
  spec.sources_per_destination = 5;
  spec.seed = 506;
  Workload wl = GenerateWorkload(topo, spec);
  System system(topo, wl);
  // Find a one-hop edge whose endpoints share a neighbor.
  const ForestEdge* victim = nullptr;
  for (const ForestEdge& edge : system.forest().edges()) {
    if (edge.hop_length() != 1) continue;
    for (NodeId k : topo.neighbors(edge.edge.tail)) {
      if (k != edge.edge.head && topo.AreNeighbors(k, edge.edge.head)) {
        victim = &edge;
        break;
      }
    }
    if (victim != nullptr) break;
  }
  ASSERT_NE(victim, nullptr);
  Topology live = Topology::WithFailures(
      topo, {{victim->edge.tail, victim->edge.head}}, {});
  FailureRoundResult plain = RunRoundWithFailures(
      system.compiled(), wl.functions, live, EnergyModel{});
  RedundancyOptions with_backup;
  with_backup.backup_relay = true;
  FailureRoundResult backed = RunRoundWithFailures(
      system.compiled(), wl.functions, live, EnergyModel{}, with_backup);
  EXPECT_LT(plain.messages_delivered, plain.messages_attempted);
  EXPECT_EQ(backed.messages_delivered, backed.messages_attempted);
  EXPECT_EQ(backed.destinations_complete, backed.destinations_total);
}

TEST(PublicApiTest, UmbrellaHeaderQuickstartCompilesAndRuns) {
  // Mirrors the snippet in core/m2m.h and README.
  Topology topo = MakeGreatDuckIslandLike();
  WorkloadSpec spec;
  spec.destination_count = 14;
  spec.sources_per_destination = 20;
  Workload wl = GenerateWorkload(topo, spec);
  System system(topo, wl);
  PlanExecutor executor = system.MakeExecutor();
  ReadingGenerator gen(topo.node_count(), 7);
  gen.Advance(1.0);
  RoundResult round = executor.RunRound(gen.values());
  EXPECT_EQ(round.destination_values.size(), 14u);
}

}  // namespace
}  // namespace m2m
