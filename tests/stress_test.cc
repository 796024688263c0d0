// Scale stress: the largest configurations the evaluation touches, run
// through the full pipeline with every validator on. These are the tests
// that catch quadratic blowups, overflow in the perturbed weights, and
// bookkeeping drift that small fixtures never exercise.

#include <memory>

#include <gtest/gtest.h>

#include "core/system.h"
#include "plan/consistency.h"
#include "runtime/network.h"
#include "sim/readings.h"
#include "topology/generator.h"
#include "workload/workload.h"

namespace m2m {
namespace {

TEST(StressTest, LargestEvaluationNetwork) {
  // Figure 6's largest point: 250 nodes, 62 destinations x 37 sources.
  std::vector<Topology> series = MakeScalingSeries({250}, 77);
  const Topology& topology = series[0];
  WorkloadSpec spec;
  spec.destination_count = topology.node_count() / 4;
  spec.sources_per_destination = topology.node_count() * 15 / 100;
  spec.selection = SourceSelection::kUniform;
  spec.seed = 901;
  Workload workload = GenerateWorkload(topology, spec);
  System system(topology, workload);  // Consistency validated internally.
  EXPECT_GT(system.forest().edges().size(), 500u);
  ReadingGenerator readings(topology.node_count(), 902);
  RoundResult result = system.MakeExecutor().RunRound(readings.values());
  EXPECT_EQ(result.destination_values.size(), workload.tasks.size());
  EXPECT_GT(result.units, 1000);
}

TEST(StressTest, EveryNodeIsADestination) {
  // Figure 3's heaviest point: all 68 nodes are destinations with 20
  // sources each (1360 pairs).
  Topology topology = MakeGreatDuckIslandLike();
  WorkloadSpec spec;
  spec.destination_count = topology.node_count();
  spec.sources_per_destination = 20;
  spec.dispersion = 0.9;
  spec.seed = 903;
  Workload workload = GenerateWorkload(topology, spec);
  System system(topology, workload);
  EXPECT_TRUE(ValidatePlanConsistency(system.plan()));
  ReadingGenerator readings(topology.node_count(), 904);
  RoundResult result = system.MakeExecutor().RunRound(readings.values());
  EXPECT_EQ(result.destination_values.size(),
            static_cast<size_t>(topology.node_count()));
}

TEST(StressTest, DistributedRuntimeAtScale) {
  Topology topology = MakeGreatDuckIslandLike();
  WorkloadSpec spec;
  spec.destination_count = 34;
  spec.sources_per_destination = 20;
  spec.dispersion = 0.9;
  spec.seed = 905;
  Workload workload = GenerateWorkload(topology, spec);
  System system(topology, workload);
  RuntimeNetwork network(system.compiled(), workload.functions);
  ReadingGenerator readings(topology.node_count(), 906);
  RuntimeNetwork::LossyResult result = network.RunRound(readings.values());
  EXPECT_EQ(result.destination_values.size(), workload.tasks.size());
  // Every packet delivered within a bounded number of one-tick hops.
  EXPECT_LE(result.final_tick, 64);
}

TEST(StressTest, LongSuppressionRunStaysExact) {
  // 100 rounds of mixed-volatility suppression with the aggressive policy:
  // accumulated float drift must stay within the executor's verification
  // tolerance (the run aborts otherwise).
  Topology topology = MakeGreatDuckIslandLike();
  WorkloadSpec spec;
  spec.destination_count = 14;
  spec.sources_per_destination = 15;
  spec.kind = AggregateKind::kWeightedAverage;
  spec.seed = 907;
  Workload workload = GenerateWorkload(topology, spec);
  System system(topology, workload);
  PlanExecutor executor = system.MakeExecutor();
  ReadingGenerator readings(topology.node_count(), 908);
  executor.InitializeState(readings.values());
  Rng rng(909);
  for (int round = 0; round < 100; ++round) {
    std::vector<bool> changed = readings.Advance(rng.UniformDouble());
    executor.RunSuppressedRound(readings.values(), changed,
                                OverridePolicy::kAggressive);
  }
  SUCCEED();
}

TEST(StressTest, ManyIncrementalUpdatesStayConsistent) {
  // 25 consecutive workload edits, each applied incrementally; the plan
  // must track a fresh rebuild bit for bit the whole way.
  Topology topology = MakeGreatDuckIslandLike();
  PathSystem paths(topology);
  WorkloadSpec spec;
  spec.destination_count = 12;
  spec.sources_per_destination = 10;
  spec.seed = 910;
  Workload workload = GenerateWorkload(topology, spec);
  auto forest = std::make_shared<MulticastForest>(paths, workload.tasks);
  GlobalPlan plan = BuildPlan(forest, workload.functions, {});
  Rng rng(911);
  for (int step = 0; step < 25; ++step) {
    const Task& task =
        workload.tasks[rng.UniformInt(workload.tasks.size())];
    if (rng.Bernoulli(0.5) && task.sources.size() > 3) {
      workload = WithSourceRemoved(
          workload, task.sources[rng.UniformInt(task.sources.size())],
          task.destination);
    } else {
      NodeId fresh = kInvalidNode;
      for (NodeId n = 0; n < topology.node_count(); ++n) {
        if (n != task.destination &&
            std::find(task.sources.begin(), task.sources.end(), n) ==
                task.sources.end()) {
          fresh = n;
          break;
        }
      }
      if (fresh == kInvalidNode) continue;
      workload = WithSourceAdded(workload, fresh, task.destination, 1.0);
    }
    forest = std::make_shared<MulticastForest>(paths, workload.tasks);
    plan = UpdatePlan(plan, forest, workload.functions);
    ASSERT_TRUE(ValidatePlanConsistency(plan)) << "step " << step;
    GlobalPlan fresh_plan = BuildPlan(forest, workload.functions,
                                      plan.options());
    ASSERT_EQ(plan.edge_plans(), fresh_plan.edge_plans())
        << "step " << step;
  }
}

}  // namespace
}  // namespace m2m
