#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "core/system.h"
#include "runtime/network.h"
#include "runtime/wire_functions.h"
#include "sim/readings.h"
#include "topology/generator.h"
#include "workload/workload.h"

namespace m2m {
namespace {

System MakeSystem(uint64_t seed, AggregateKind kind,
                  PlanStrategy strategy = PlanStrategy::kOptimal) {
  Topology topology = MakeGreatDuckIslandLike();
  WorkloadSpec spec;
  spec.destination_count = 8;
  spec.sources_per_destination = 6;
  spec.kind = kind;
  spec.seed = seed;
  Workload workload = GenerateWorkload(topology, spec);
  SystemOptions options;
  options.planner.strategy = strategy;
  return System(topology, workload, options);
}

// Differential pinning: the wire-kind implementations must match the
// AggregateFunction classes exactly.
TEST(WireFunctionsTest, MatchesFunctionObjects) {
  Rng rng(41);
  for (AggregateKind kind :
       {AggregateKind::kWeightedSum, AggregateKind::kWeightedAverage,
        AggregateKind::kWeightedStdDev, AggregateKind::kMin,
        AggregateKind::kMax, AggregateKind::kCount,
        AggregateKind::kCountAbove, AggregateKind::kArgMax}) {
    FunctionSpec spec;
    spec.kind = kind;
    spec.threshold = 15.0;
    spec.weights = {{3, 1.25}, {7, 0.5}};
    auto fn = MakeAggregateFunction(spec);
    uint8_t wire_kind = static_cast<uint8_t>(kind);
    for (int trial = 0; trial < 30; ++trial) {
      double v3 = rng.UniformDouble(0.0, 30.0);
      double v7 = rng.UniformDouble(0.0, 30.0);
      PartialRecord expected =
          fn->Merge(fn->PreAggregate(3, v3), fn->PreAggregate(7, v7));
      PartialRecord wire_record = wire::Merge(
          wire_kind,
          wire::PreAggregate(wire_kind,
                             static_cast<float>(fn->WeightFor(3)),
                             static_cast<float>(fn->Parameter()), 3, v3),
          wire::PreAggregate(wire_kind,
                             static_cast<float>(fn->WeightFor(7)),
                             static_cast<float>(fn->Parameter()), 7, v7));
      for (size_t f = 0; f < expected.fields.size(); ++f) {
        EXPECT_NEAR(wire_record.fields[f], expected.fields[f],
                    1e-5 * std::max(1.0, std::fabs(expected.fields[f])))
            << ToString(kind);
      }
      EXPECT_NEAR(wire::Evaluate(wire_kind, wire_record),
                  fn->Evaluate(expected),
                  1e-5 * std::max(1.0, std::fabs(fn->Evaluate(expected))))
          << ToString(kind);
    }
  }
}

TEST(WireFunctionsTest, FieldCountsMatchRecordShapes) {
  EXPECT_EQ(wire::FieldCountOf(
                static_cast<uint8_t>(AggregateKind::kWeightedSum)),
            1);
  EXPECT_EQ(wire::FieldCountOf(
                static_cast<uint8_t>(AggregateKind::kWeightedAverage)),
            2);
  EXPECT_EQ(wire::FieldCountOf(
                static_cast<uint8_t>(AggregateKind::kWeightedStdDev)),
            3);
  EXPECT_EQ(
      wire::FieldCountOf(static_cast<uint8_t>(AggregateKind::kArgMax)), 2);
}

TEST(WireFunctionsTest, UnknownKindAborts) {
  EXPECT_DEATH(wire::FieldCountOf(99), "unknown wire function kind");
}

class RuntimeNetworkTest
    : public ::testing::TestWithParam<std::pair<AggregateKind,
                                                PlanStrategy>> {};

// The core distributed-execution guarantee: nodes driven purely by their
// serialized table images, exchanging encoded packets, produce exactly the
// aggregates the analytic executor computes.
TEST_P(RuntimeNetworkTest, MatchesAnalyticExecutor) {
  auto [kind, strategy] = GetParam();
  System system = MakeSystem(301, kind, strategy);
  ReadingGenerator readings(system.topology().node_count(), 9);

  PlanExecutor executor = system.MakeExecutor();
  RoundResult analytic = executor.RunRound(readings.values());

  RuntimeNetwork network(system.compiled(), system.workload().functions);
  RuntimeNetwork::LossyResult distributed =
      network.RunRound(readings.values());

  ASSERT_EQ(distributed.destination_values.size(),
            analytic.destination_values.size());
  for (const auto& [d, value] : analytic.destination_values) {
    // Wire floats are 32-bit; allow float-precision slack.
    EXPECT_NEAR(distributed.destination_values.at(d), value,
                1e-4 * std::max(1.0, std::fabs(value)))
        << ToString(kind) << "/" << ToString(strategy);
  }
  EXPECT_GT(distributed.deliveries, 0);
  EXPECT_GT(distributed.energy_mj, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndStrategies, RuntimeNetworkTest,
    ::testing::Values(
        std::pair{AggregateKind::kWeightedSum, PlanStrategy::kOptimal},
        std::pair{AggregateKind::kWeightedAverage, PlanStrategy::kOptimal},
        std::pair{AggregateKind::kWeightedStdDev, PlanStrategy::kOptimal},
        std::pair{AggregateKind::kMin, PlanStrategy::kOptimal},
        std::pair{AggregateKind::kArgMax, PlanStrategy::kOptimal},
        std::pair{AggregateKind::kCountAbove, PlanStrategy::kOptimal},
        std::pair{AggregateKind::kWeightedAverage,
                  PlanStrategy::kMulticastOnly},
        std::pair{AggregateKind::kWeightedAverage,
                  PlanStrategy::kAggregationOnly}),
    [](const auto& info) {
      return ToString(info.param.first) + "_" + ToString(info.param.second);
    });

// A lossless round is the perfect-link lossy round: every message crosses
// its segment once and each crossed hop is acked by one header-only frame.
// On a line with endpoint-only milestones and raw forwarding, the energy is
// hand-checkable: routes 0->5, 1->5 and 2->5 are single virtual edges of 5,
// 4 and 3 hops, each carrying one raw unit.
TEST(RuntimeNetworkTest, LosslessRoundPaysOneHeaderAckPerDataHop) {
  Topology topology = MakeGrid(6, 1, 10.0, 15.0);
  Workload workload;
  workload.tasks = {Task{5, {0, 1, 2}}};
  FunctionSpec spec;
  spec.kind = AggregateKind::kWeightedSum;
  spec.weights = {{0, 1.0}, {1, 2.0}, {2, 3.0}};
  workload.specs = {spec};
  workload.RebuildFunctions();
  SystemOptions options;
  options.planner.strategy = PlanStrategy::kMulticastOnly;
  options.milestones = MilestoneSelector::EndpointsOnly(topology.node_count());
  System system(topology, workload, options);

  // A raw unit is a tag byte, a one-byte varint source id and an f32; the
  // message leads with a one-byte varint unit count.
  const EnergyModel energy;
  double expected_mj = 0.0;
  int data_hops = 0;
  for (NodeId n = 0; n < topology.node_count(); ++n) {
    for (const OutgoingMessageEntry& message :
         system.compiled().state(n).outgoing_table) {
      const int hops = static_cast<int>(message.segment.size()) - 1;
      const int payload = 1 + 6 * message.unit_count;
      data_hops += hops;
      expected_mj +=
          hops * (energy.UnicastHopUj(payload) + energy.UnicastHopUj(0)) /
          1000.0;
    }
  }
  EXPECT_EQ(data_hops, 5 + 4 + 3);

  RuntimeNetwork network(system.compiled(), workload.functions);
  ReadingGenerator readings(topology.node_count(), 10);
  RuntimeNetwork::LossyResult result =
      network.RunRound(readings.values(), energy);
  EXPECT_DOUBLE_EQ(result.energy_mj, expected_mj);
  const int64_t messages =
      static_cast<int64_t>(system.compiled().schedule().messages().size());
  EXPECT_EQ(messages, 3);
  EXPECT_EQ(result.attempts, messages);
  EXPECT_EQ(result.deliveries, messages);
  EXPECT_EQ(result.retransmissions, 0);
  const std::vector<double>& values = readings.values();
  EXPECT_NEAR(result.destination_values.at(5),
              1.0 * values[0] + 2.0 * values[1] + 3.0 * values[2], 1e-3);
}

TEST(RuntimeNetworkTest, RunsMultipleRounds) {
  System system = MakeSystem(303, AggregateKind::kWeightedAverage);
  RuntimeNetwork network(system.compiled(), system.workload().functions);
  ReadingGenerator readings(system.topology().node_count(), 11);
  for (int round = 0; round < 5; ++round) {
    readings.Advance(1.0);
    RuntimeNetwork::LossyResult result = network.RunRound(readings.values());
    for (const Task& task : system.workload().tasks) {
      std::unordered_map<NodeId, double> inputs;
      for (NodeId s : task.sources) inputs[s] = readings.values()[s];
      double expected =
          system.workload().functions.Get(task.destination).Direct(inputs);
      EXPECT_NEAR(result.destination_values.at(task.destination), expected,
                  1e-4 * std::max(1.0, std::fabs(expected)));
    }
  }
}

TEST(RuntimeNetworkTest, WorksWithMilestoneVirtualEdges) {
  Topology topology = MakeGreatDuckIslandLike();
  LinkStabilityModel stability(topology, 44);
  WorkloadSpec spec;
  spec.destination_count = 8;
  spec.sources_per_destination = 6;
  spec.seed = 304;
  Workload workload = GenerateWorkload(topology, spec);
  SystemOptions options;
  options.milestones =
      MilestoneSelector::StabilityThreshold(topology, stability, 0.86);
  System system(topology, workload, options);
  RuntimeNetwork network(system.compiled(), workload.functions);
  ReadingGenerator readings(topology.node_count(), 12);
  RuntimeNetwork::LossyResult result = network.RunRound(readings.values());
  EXPECT_EQ(result.destination_values.size(), workload.tasks.size());
}

TEST(RuntimeNetworkTest, ImageBytesMatchSerializedStates) {
  System system = MakeSystem(305, AggregateKind::kWeightedAverage);
  RuntimeNetwork network(system.compiled(), system.workload().functions);
  int64_t expected = 0;
  for (const auto& image : EncodeAllNodeStates(
           system.compiled(), system.workload().functions)) {
    expected += static_cast<int64_t>(image.size());
  }
  EXPECT_EQ(network.installed_image_bytes(), expected);
}

TEST(NodeRuntimeTest, RejectsForeignPartialRecords) {
  System system = MakeSystem(306, AggregateKind::kWeightedAverage);
  std::vector<std::vector<uint8_t>> images = EncodeAllNodeStates(
      system.compiled(), system.workload().functions);
  // Find a node with no partial entries at all.
  for (NodeId n = 0; n < system.topology().node_count(); ++n) {
    if (!system.compiled().state(n).partial_table.empty()) continue;
    NodeRuntime node(n, images[n]);
    node.StartRound(1.0);
    // A partial record for an unknown destination must abort loudly rather
    // than corrupt state.
    ByteWriter writer;
    writer.WriteVarint(1);
    writer.WriteU8(0x21);  // partial, 2 fields
    writer.WriteVarint(9999);
    writer.WriteF32(1.0f);
    writer.WriteF32(1.0f);
    EXPECT_DEATH(node.OnReceive(writer.bytes()), "no table entry");
    return;
  }
  GTEST_SKIP() << "no partial-free node in this plan";
}

}  // namespace
}  // namespace m2m
