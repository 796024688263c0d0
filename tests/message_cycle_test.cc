// The paper's message-merging corner case (section 3): "edge e1's message
// unit x1 may be waiting for e2's unit y2, e2's x2 for e3's y3, and e3's x3
// for e1's y1; in this case one ei must transmit xi and yi separately to
// break the cycle." A pentagon with satellite sources/destinations realizes
// it: each pentagon edge carries two routes' units whose wait-for relations
// chain all the way around, so merging every edge into one message is
// cyclic and the greedy merger must leave at least one edge split.

#include <cmath>
#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "compile_digest.h"
#include "plan/messaging.h"
#include "plan/planner.h"
#include "routing/path_system.h"
#include "sim/executor.h"
#include "sim/readings.h"
#include "topology/topology.h"
#include "workload/workload.h"

namespace m2m {
namespace {

struct PentagonCase {
  Topology topology;
  Workload workload;
  std::shared_ptr<const MulticastForest> forest;
  std::vector<NodeId> ring;     // Pentagon nodes.
  std::vector<NodeId> sources;  // Satellite source per ring node.
  std::vector<NodeId> dests;    // Satellite destination per ring node.
};

PentagonCase BuildPentagon() {
  // Ring of 5 nodes, radius 40 m: sides ~47 m (within the 50 m range),
  // diagonals ~76 m (out of range). Each ring node hosts a source
  // satellite and a destination satellite just outside the ring.
  const double kRadius = 40.0;
  std::vector<Point> positions;
  for (int i = 0; i < 5; ++i) {
    double angle = 2.0 * M_PI * i / 5.0;
    positions.push_back(
        Point{kRadius * std::cos(angle), kRadius * std::sin(angle)});
  }
  std::vector<NodeId> ring{0, 1, 2, 3, 4};
  std::vector<NodeId> sources;
  std::vector<NodeId> dests;
  for (int i = 0; i < 5; ++i) {
    double angle = 2.0 * M_PI * i / 5.0;
    double out = kRadius + 42.0;
    // Source satellite radially outward; destination satellite slightly
    // rotated so the two stay close to their ring node only.
    sources.push_back(static_cast<NodeId>(positions.size()));
    positions.push_back(
        Point{out * std::cos(angle - 0.08), out * std::sin(angle - 0.08)});
    dests.push_back(static_cast<NodeId>(positions.size()));
    positions.push_back(
        Point{out * std::cos(angle + 0.08), out * std::sin(angle + 0.08)});
  }
  Topology topology(std::move(positions), 50.0);
  // Sanity: ring adjacency is exactly the pentagon sides.
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(topology.AreNeighbors(ring[i], ring[(i + 1) % 5]));
    EXPECT_FALSE(topology.AreNeighbors(ring[i], ring[(i + 2) % 5]));
  }

  // Route i: source satellite at ring node i feeds the destination
  // satellite at ring node i+2 — two ring hops, always the short way
  // around, so pentagon edge (i, i+1) serves routes i-1 and i and the
  // wait-for relation chains around the whole ring.
  Workload workload;
  for (int i = 0; i < 5; ++i) {
    FunctionSpec spec;
    spec.kind = AggregateKind::kWeightedSum;
    spec.weights = {{sources[i], 1.0 + i}};
    workload.tasks.push_back(Task{dests[(i + 2) % 5], {sources[i]}});
    workload.specs.push_back(spec);
  }
  workload.RebuildFunctions();

  PentagonCase result{std::move(topology), std::move(workload), nullptr,
                      std::move(ring), std::move(sources), std::move(dests)};
  static std::vector<std::unique_ptr<PathSystem>> keep_alive;
  keep_alive.push_back(std::make_unique<PathSystem>(result.topology));
  result.forest = std::make_shared<const MulticastForest>(
      *keep_alive.back(), result.workload.tasks);
  return result;
}

TEST(MessageCycleTest, RoutesChainAroundTheRing) {
  PentagonCase pentagon = BuildPentagon();
  // Every route takes its two ring hops the short way.
  for (int i = 0; i < 5; ++i) {
    const std::vector<int>& route = pentagon.forest->Route(
        SourceDestPair{pentagon.sources[i], pentagon.dests[(i + 2) % 5]});
    ASSERT_EQ(route.size(), 4u) << "route " << i;
  }
  // Each pentagon edge (one direction) carries exactly two routes.
  int shared_ring_edges = 0;
  for (const ForestEdge& edge : pentagon.forest->edges()) {
    bool ring_edge = edge.edge.tail < 5 && edge.edge.head < 5;
    if (ring_edge && edge.pairs.size() == 2) ++shared_ring_edges;
  }
  EXPECT_EQ(shared_ring_edges, 5);
}

TEST(MessageCycleTest, FullPerEdgeMergeWouldCycleSoGreedySplits) {
  PentagonCase pentagon = BuildPentagon();
  GlobalPlan plan = BuildPlan(pentagon.forest,
                              pentagon.workload.functions, {});
  MessageSchedule schedule =
      MessageSchedule::Build(plan, pentagon.workload.functions,
                             MergePolicy::kGreedyMergePerEdge);
  // Theorem 2 holds at unit granularity...
  EXPECT_TRUE(schedule.UnitsAcyclic());
  // ...but one-message-per-edge is impossible here: the greedy merger must
  // leave at least one edge carrying two messages.
  std::set<int> edges_with_units;
  for (const MessageUnit& unit : schedule.units()) {
    edges_with_units.insert(unit.edge_index);
  }
  EXPECT_GT(schedule.messages().size(), edges_with_units.size())
      << "per-edge contraction should have been cyclic";
  EXPECT_TRUE(schedule.MessagesAcyclic());
  // Still better than no merging at all.
  EXPECT_LT(schedule.messages().size(), schedule.units().size());
}

TEST(MessageCycleTest, ExecutesCorrectlyDespiteTheSplit) {
  PentagonCase pentagon = BuildPentagon();
  GlobalPlan plan = BuildPlan(pentagon.forest,
                              pentagon.workload.functions, {});
  CompiledPlan compiled =
      CompiledPlan::Compile(plan, pentagon.workload.functions);
  PlanExecutor executor(std::make_shared<CompiledPlan>(compiled),
                        pentagon.workload.functions, EnergyModel{});
  ReadingGenerator readings(pentagon.topology.node_count(), 1001);
  RoundResult result = executor.RunRound(readings.values());
  for (int i = 0; i < 5; ++i) {
    double expected = (1.0 + i) * readings.values()[pentagon.sources[i]];
    EXPECT_NEAR(result.destination_values.at(pentagon.dests[(i + 2) % 5]),
                expected, 1e-9)
        << "route " << i;
  }
}

// The pentagon is the only known plan whose per-edge contraction cycles, so
// it is the golden for the pairwise fallback's packing: the greedy merge
// order and its result must not change.
TEST(MessageCycleTest, FallbackPackingGoldenDigests) {
  PentagonCase pentagon = BuildPentagon();
  GlobalPlan plan = BuildPlan(pentagon.forest,
                              pentagon.workload.functions, {});
  const std::pair<MergePolicy, const char*> cases[] = {
      {MergePolicy::kGreedyMergePerEdge,
       "1ed2a8f88088ac8d/54510cacb805de5f/7885dca854953ab4"},
      {MergePolicy::kOneUnitPerMessage,
       "811856469d314c47/9087c9b6eceb7f3b/58ab5e64f51ee9b0"},
  };
  for (const auto& [policy, expected] : cases) {
    CompileDigests digests;
    digests.Add(
        CompiledPlan::Compile(plan, pentagon.workload.functions, policy),
        pentagon.workload.functions);
    EXPECT_EQ(digests.ToString(), expected)
        << "merge policy " << static_cast<int>(policy);
  }
}

}  // namespace
}  // namespace m2m
