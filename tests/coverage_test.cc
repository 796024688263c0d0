// Targeted coverage for corners the module suites don't reach: diagnostic
// message contents, lookup helpers, config math, and cross-module
// invariants that only show up in unusual configurations.

#include <memory>

#include <gtest/gtest.h>

#include "core/system.h"
#include "mac/csma.h"
#include "plan/consistency.h"
#include "plan/dissemination.h"
#include "sim/base_station.h"
#include "sim/readings.h"
#include "topology/generator.h"
#include "workload/workload.h"

namespace m2m {
namespace {

TEST(EdgePlanTest, LookupsUseBinarySearch) {
  EdgePlan plan;
  plan.raw_sources = {2, 5, 9};
  plan.agg_destinations = {1, 7};
  EXPECT_TRUE(plan.TransmitsRaw(5));
  EXPECT_FALSE(plan.TransmitsRaw(6));
  EXPECT_TRUE(plan.TransmitsAggregate(7));
  EXPECT_FALSE(plan.TransmitsAggregate(9));
  EXPECT_EQ(plan.unit_count(), 5);
}

TEST(ConsistencyTest, ViolationMessagesNameTheEdge) {
  Topology topo = MakeGreatDuckIslandLike();
  PathSystem paths(topo);
  WorkloadSpec spec;
  spec.destination_count = 6;
  spec.sources_per_destination = 5;
  spec.seed = 801;
  Workload wl = GenerateWorkload(topo, spec);
  auto forest = std::make_shared<MulticastForest>(paths, wl.tasks);
  GlobalPlan plan = BuildPlan(forest, wl.functions, {});
  // Remove one edge's entire cover: every pair on it becomes uncovered.
  std::vector<EdgePlan> plans = plan.edge_plans();
  int corrupted_edge = -1;
  for (size_t e = 0; e < plans.size(); ++e) {
    if (plans[e].unit_count() > 0) {
      plans[e].raw_sources.clear();
      plans[e].agg_destinations.clear();
      corrupted_edge = static_cast<int>(e);
      break;
    }
  }
  ASSERT_GE(corrupted_edge, 0);
  GlobalPlan bad(forest, std::move(plans), plan.options());
  std::vector<std::string> violations = FindConsistencyViolations(bad);
  ASSERT_FALSE(violations.empty());
  const DirectedEdge& e = forest->edges()[corrupted_edge].edge;
  std::string expected = std::to_string(e.tail) + "->" +
                         std::to_string(e.head);
  EXPECT_NE(violations.front().find(expected), std::string::npos)
      << violations.front();
  EXPECT_NE(violations.front().find("covers neither"), std::string::npos);
}

TEST(CsmaConfigTest, ByteTimingMatchesBitRate) {
  CsmaConfig config;
  // 38.4 kbps = 4.8 bytes per millisecond.
  EXPECT_NEAR(config.BytesToMs(48), 10.0, 1e-9);
  CsmaConfig fast;
  fast.bit_rate_bps = 76800.0;
  EXPECT_NEAR(fast.BytesToMs(48), 5.0, 1e-9);
}

TEST(DisseminationTest, PacketizationRoundsUp) {
  // A node image of 65 bytes two hops away: 2 packets x 2 hops.
  Topology line({{0, 0}, {40, 0}, {80, 0}}, 50.0);
  PathSystem paths(line);
  Workload wl;
  FunctionSpec spec;
  spec.kind = AggregateKind::kWeightedSum;
  // Enough sources that node 2's image exceeds one 64-byte packet.
  spec.weights = {{0, 1.0}};
  wl.tasks.push_back(Task{2, {0}});
  wl.specs.push_back(spec);
  wl.RebuildFunctions();
  System system(line, wl);
  DisseminationCost cost = ComputeFullDissemination(
      system.compiled(), wl.functions, paths, /*base_station=*/0,
      EnergyModel{});
  // Node 0 (base) is free; nodes 1 and 2 pay per-hop packets.
  EXPECT_GT(cost.packets, 0);
  EXPECT_EQ(cost.nodes_updated, 3);
  // Energy strictly positive and proportional to packets.
  EXPECT_GT(cost.energy_mj, 0.0);
}

TEST(BaseStationTest, SelfSufficientWorkloadHasNoDownlinkForBaseTask) {
  // A task whose destination is the base station itself contributes no
  // downlink traffic.
  Topology topo = MakeGreatDuckIslandLike();
  PathSystem paths(topo);
  NodeId base = PickBaseStation(topo);
  Workload wl;
  FunctionSpec spec;
  spec.kind = AggregateKind::kWeightedSum;
  NodeId source = (base + 1) % topo.node_count();
  spec.weights = {{source, 1.0}};
  wl.tasks.push_back(Task{base, {source}});
  wl.specs.push_back(spec);
  wl.RebuildFunctions();
  BaseStationRoundResult result =
      SimulateBaseStationRound(topo, paths, wl, base, EnergyModel{});
  EXPECT_GT(result.uplink_mj, 0.0);
  EXPECT_EQ(result.downlink_mj, 0.0);
}

TEST(RoundResultTest, DefaultsAreZeroed) {
  RoundResult result;
  EXPECT_EQ(result.energy_mj, 0.0);
  EXPECT_EQ(result.messages, 0);
  EXPECT_EQ(result.units, 0);
  EXPECT_EQ(result.overrides, 0);
  EXPECT_EQ(result.max_abs_error, 0.0);
  EXPECT_TRUE(result.destination_values.empty());
}

TEST(WorkloadTest, SingleSourceSingleDestinationPipeline) {
  // Degenerate but legal: one task, one source.
  Topology topo = MakeGreatDuckIslandLike();
  Workload wl;
  FunctionSpec spec;
  spec.kind = AggregateKind::kWeightedSum;
  spec.weights = {{7, 2.5}};
  wl.tasks.push_back(Task{40, {7}});
  wl.specs.push_back(spec);
  wl.RebuildFunctions();
  System system(topo, wl);
  ReadingGenerator readings(topo.node_count(), 803);
  RoundResult result = system.MakeExecutor().RunRound(readings.values());
  EXPECT_NEAR(result.destination_values.at(40),
              2.5 * readings.values()[7], 1e-9);
}

TEST(WorkloadTest, DestinationAsItsOwnOnlySourceCostsNothing) {
  Topology topo = MakeGreatDuckIslandLike();
  Workload wl;
  FunctionSpec spec;
  spec.kind = AggregateKind::kWeightedSum;
  spec.weights = {{40, 1.0}};
  wl.tasks.push_back(Task{40, {40}});
  wl.specs.push_back(spec);
  wl.RebuildFunctions();
  System system(topo, wl);
  ReadingGenerator readings(topo.node_count(), 804);
  RoundResult result = system.MakeExecutor().RunRound(readings.values());
  EXPECT_EQ(result.energy_mj, 0.0);
  EXPECT_EQ(result.messages, 0);
  EXPECT_NEAR(result.destination_values.at(40), readings.values()[40],
              1e-12);
}

}  // namespace
}  // namespace m2m
