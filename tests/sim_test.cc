#include <memory>

#include <gtest/gtest.h>

#include "core/system.h"
#include "sim/flood.h"
#include "sim/readings.h"
#include "topology/generator.h"
#include "workload/workload.h"

namespace m2m {
namespace {

WorkloadSpec SmallSpec(uint64_t seed = 71) {
  WorkloadSpec spec;
  spec.destination_count = 10;
  spec.sources_per_destination = 8;
  spec.seed = seed;
  return spec;
}

SystemOptions WithStrategy(PlanStrategy strategy) {
  SystemOptions options;
  options.planner.strategy = strategy;
  return options;
}

TEST(EnergyModelTest, CostsScaleWithBytes) {
  EnergyModel model;
  EXPECT_DOUBLE_EQ(model.TxUj(0), 16.9 * 8);
  EXPECT_DOUBLE_EQ(model.TxUj(10), 16.9 * 18);
  EXPECT_DOUBLE_EQ(model.RxUj(10), 6.25 * 18);
  EXPECT_DOUBLE_EQ(model.UnicastHopUj(10), (16.9 + 6.25) * 18);
  EXPECT_DOUBLE_EQ(model.BroadcastUj(10, 3), (16.9 + 3 * 6.25) * 18);
}

TEST(ReadingGeneratorTest, DeterministicAndChangeControlled) {
  ReadingGenerator a(20, 5);
  ReadingGenerator b(20, 5);
  EXPECT_EQ(a.values(), b.values());
  std::vector<bool> none = a.Advance(0.0);
  EXPECT_TRUE(std::none_of(none.begin(), none.end(),
                           [](bool c) { return c; }));
  std::vector<bool> all = a.Advance(1.0);
  EXPECT_TRUE(std::all_of(all.begin(), all.end(), [](bool c) { return c; }));
}

TEST(ExecutorTest, FullRoundComputesCorrectAggregates) {
  Topology topo = MakeGreatDuckIslandLike();
  Workload wl = GenerateWorkload(topo, SmallSpec());
  System system(topo, wl);
  PlanExecutor executor = system.MakeExecutor();
  ReadingGenerator gen(topo.node_count(), 9);
  RoundResult result = executor.RunRound(gen.values());
  ASSERT_EQ(result.destination_values.size(), wl.tasks.size());
  for (const Task& task : wl.tasks) {
    std::unordered_map<NodeId, double> inputs;
    for (NodeId s : task.sources) inputs[s] = gen.values()[s];
    EXPECT_NEAR(result.destination_values.at(task.destination),
                wl.functions.Get(task.destination).Direct(inputs), 1e-9);
  }
  EXPECT_GT(result.energy_mj, 0.0);
  EXPECT_GT(result.messages, 0);
  EXPECT_EQ(result.units, system.plan().TotalUnits());
}

TEST(ExecutorTest, NodeEnergySumsToTotal) {
  Topology topo = MakeGreatDuckIslandLike();
  Workload wl = GenerateWorkload(topo, SmallSpec());
  System system(topo, wl);
  PlanExecutor executor = system.MakeExecutor();
  ReadingGenerator gen(topo.node_count(), 10);
  RoundResult result = executor.RunRound(gen.values());
  double per_node = 0.0;
  for (double e : result.node_energy_mj) per_node += e;
  EXPECT_NEAR(per_node, result.energy_mj, 1e-9);
}

TEST(ExecutorTest, OptimalCostsNoMoreThanBaselines) {
  Topology topo = MakeGreatDuckIslandLike();
  Workload wl = GenerateWorkload(topo, SmallSpec());
  System optimal(topo, wl, WithStrategy(PlanStrategy::kOptimal));
  System multicast(topo, wl, WithStrategy(PlanStrategy::kMulticastOnly));
  System aggregation(topo, wl, WithStrategy(PlanStrategy::kAggregationOnly));
  ReadingGenerator gen(topo.node_count(), 11);
  double opt = optimal.MakeExecutor().RunRound(gen.values()).energy_mj;
  double mc = multicast.MakeExecutor().RunRound(gen.values()).energy_mj;
  double agg = aggregation.MakeExecutor().RunRound(gen.values()).energy_mj;
  EXPECT_LE(opt, mc);
  EXPECT_LE(opt, agg);
}

TEST(ExecutorTest, BaselinesComputeSameAggregates) {
  Topology topo = MakeGreatDuckIslandLike();
  Workload wl = GenerateWorkload(topo, SmallSpec());
  ReadingGenerator gen(topo.node_count(), 12);
  std::unordered_map<NodeId, double> reference;
  for (PlanStrategy strategy :
       {PlanStrategy::kOptimal, PlanStrategy::kMulticastOnly,
        PlanStrategy::kAggregationOnly}) {
    System system(topo, wl, WithStrategy(strategy));
    RoundResult result =
        system.MakeExecutor().RunRound(gen.values());
    if (reference.empty()) {
      reference = result.destination_values;
    } else {
      for (const auto& [d, v] : result.destination_values) {
        EXPECT_NEAR(v, reference.at(d), 1e-9) << ToString(strategy);
      }
    }
  }
}

TEST(ExecutorTest, MergedMessagesCheaperThanPerUnit) {
  Topology topo = MakeGreatDuckIslandLike();
  Workload wl = GenerateWorkload(topo, SmallSpec());
  SystemOptions merged;
  SystemOptions unmerged;
  unmerged.merge = MergePolicy::kOneUnitPerMessage;
  System a(topo, wl, merged);
  System b(topo, wl, unmerged);
  ReadingGenerator gen(topo.node_count(), 13);
  RoundResult merged_result = a.MakeExecutor().RunRound(gen.values());
  RoundResult unmerged_result = b.MakeExecutor().RunRound(gen.values());
  // Same payload, fewer headers.
  EXPECT_EQ(merged_result.payload_bytes, unmerged_result.payload_bytes);
  EXPECT_LT(merged_result.messages, unmerged_result.messages);
  EXPECT_LT(merged_result.energy_mj, unmerged_result.energy_mj);
}

TEST(ExecutorTest, MilestonePlanStillComputesCorrectly) {
  Topology topo = MakeGreatDuckIslandLike();
  Workload wl = GenerateWorkload(topo, SmallSpec());
  LinkStabilityModel stability(topo, 3);
  SystemOptions options;
  options.milestones =
      MilestoneSelector::StabilityThreshold(topo, stability, 0.86);
  System system(topo, wl, options);
  ReadingGenerator gen(topo.node_count(), 14);
  RoundResult result = system.MakeExecutor().RunRound(gen.values());
  for (const Task& task : wl.tasks) {
    std::unordered_map<NodeId, double> inputs;
    for (NodeId s : task.sources) inputs[s] = gen.values()[s];
    EXPECT_NEAR(result.destination_values.at(task.destination),
                wl.functions.Get(task.destination).Direct(inputs), 1e-9);
  }
}

TEST(ExecutorTest, FewerMilestonesFewerMessagesMorePhysicalBytes) {
  Topology topo = MakeGreatDuckIslandLike();
  Workload wl = GenerateWorkload(topo, SmallSpec());
  System all(topo, wl);  // Every node a milestone.
  SystemOptions sparse_options;
  sparse_options.milestones = MilestoneSelector::EndpointsOnly(
      topo.node_count());
  System sparse(topo, wl, sparse_options);
  ReadingGenerator gen(topo.node_count(), 15);
  RoundResult all_result = all.MakeExecutor().RunRound(gen.values());
  RoundResult sparse_result = sparse.MakeExecutor().RunRound(gen.values());
  // Endpoint-only routing cannot aggregate mid-route, so it moves at least
  // as many physical bytes.
  EXPECT_GE(sparse_result.physical_transmissions,
            all_result.messages);
  EXPECT_GE(sparse_result.energy_mj * 1.0001, all_result.energy_mj);
}

TEST(ExecutorTest, BroadcastOptionNeverCostsMore) {
  Topology topo = MakeGreatDuckIslandLike();
  Workload wl = GenerateWorkload(topo, SmallSpec());
  ReadingGenerator gen(topo.node_count(), 19);
  for (PlanStrategy strategy :
       {PlanStrategy::kOptimal, PlanStrategy::kMulticastOnly}) {
    System system(topo, wl, WithStrategy(strategy));
    PlanExecutor executor = system.MakeExecutor();
    RoundResult unicast = executor.RunRound(gen.values());
    TransmissionOptions tx;
    tx.use_broadcast = true;
    RoundResult broadcast = executor.RunRound(gen.values(), tx);
    EXPECT_LE(broadcast.energy_mj, unicast.energy_mj) << ToString(strategy);
    EXPECT_LE(broadcast.units, unicast.units);
    // Same aggregates either way.
    for (const auto& [d, v] : unicast.destination_values) {
      EXPECT_NEAR(broadcast.destination_values.at(d), v, 1e-12);
    }
  }
}

TEST(ExecutorTest, BroadcastIsNoOpWithoutSharedRawUnits) {
  // A pure-aggregation plan ships no raw units, so there is nothing to
  // broadcast and the costs are identical.
  Topology topo = MakeGreatDuckIslandLike();
  Workload wl = GenerateWorkload(topo, SmallSpec());
  System system(topo, wl, WithStrategy(PlanStrategy::kAggregationOnly));
  PlanExecutor executor = system.MakeExecutor();
  ReadingGenerator gen(topo.node_count(), 20);
  RoundResult unicast = executor.RunRound(gen.values());
  TransmissionOptions tx;
  tx.use_broadcast = true;
  RoundResult broadcast = executor.RunRound(gen.values(), tx);
  EXPECT_DOUBLE_EQ(broadcast.energy_mj, unicast.energy_mj);
  EXPECT_EQ(broadcast.messages, unicast.messages);
}

// Two executors from one System, fed the same readings, charge the same
// mean round energy.
TEST(SystemTest, AverageRoundEnergyIsStable) {
  Topology topo = MakeGreatDuckIslandLike();
  Workload wl = GenerateWorkload(topo, SmallSpec());
  System system(topo, wl);
  auto average_round_energy = [&] {
    PlanExecutor executor = system.MakeExecutor();
    ReadingGenerator readings(topo.node_count(), 77);
    double total = 0.0;
    for (int r = 0; r < 3; ++r) {
      readings.Advance(1.0);
      total += executor.RunRound(readings.values()).energy_mj;
    }
    return total / 3;
  };
  double avg1 = average_round_energy();
  double avg2 = average_round_energy();
  EXPECT_DOUBLE_EQ(avg1, avg2);
  EXPECT_GT(avg1, 0.0);
}

TEST(FloodTest, ReachesEveryoneAndChargesEnergy) {
  Topology topo = MakeGreatDuckIslandLike();
  std::vector<NodeId> sources{1, 5, 9, 44};
  FloodResult result = SimulateFloodRound(topo, sources, EnergyModel{});
  EXPECT_GT(result.energy_mj, 0.0);
  EXPECT_GT(result.messages, 0);
  // Every node transmits at least once when it must forward fresh values;
  // messages bounded by nodes * eccentricity.
  EXPECT_GE(result.messages, topo.node_count());
}

TEST(FloodTest, MoreSourcesMoreEnergy) {
  Topology topo = MakeGreatDuckIslandLike();
  FloodResult small = SimulateFloodRound(topo, {1, 2}, EnergyModel{});
  std::vector<NodeId> many;
  for (NodeId n = 0; n < 30; ++n) many.push_back(n);
  FloodResult large = SimulateFloodRound(topo, many, EnergyModel{});
  EXPECT_GT(large.energy_mj, small.energy_mj);
  EXPECT_GT(large.payload_bytes, small.payload_bytes);
}

TEST(FloodTest, FloodCostsMoreThanOptimalOnLightWorkload) {
  // Paper: for small workloads flood is far more expensive than everything.
  Topology topo = MakeGreatDuckIslandLike();
  WorkloadSpec spec = SmallSpec();
  spec.destination_count = 4;
  spec.sources_per_destination = 5;
  Workload wl = GenerateWorkload(topo, spec);
  System system(topo, wl);
  ReadingGenerator gen(topo.node_count(), 16);
  double optimal = system.MakeExecutor().RunRound(gen.values()).energy_mj;
  double flood =
      SimulateFloodRound(topo, wl.DistinctSources(), EnergyModel{})
          .energy_mj;
  EXPECT_GT(flood, 2.0 * optimal);
}

}  // namespace
}  // namespace m2m
