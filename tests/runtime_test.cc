#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/rng.h"
#include "compile_digest.h"
#include "core/system.h"
#include "plan/serialization.h"
#include "runtime/channel.h"
#include "runtime/network.h"
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

TEST(WireFunctionsTest, FieldCountsMatchRecordShapes) {
  EXPECT_EQ(agg::FieldCount(AggregateKind::kWeightedSum), 1);
  EXPECT_EQ(agg::FieldCount(AggregateKind::kWeightedAverage), 2);
  EXPECT_EQ(agg::FieldCount(AggregateKind::kWeightedStdDev), 3);
  EXPECT_EQ(agg::FieldCount(AggregateKind::kArgMax), 2);
}

// ---------------------------------------------------------------------------
// Every aggregate kind, pinned end to end. The other goldens run only the
// default kWeightedAverage; this one runs each AggregateKind on a seeded
// GDI-like workload and digests everything its algebra feeds: the node
// images, analytic rounds (value and energy bits), the delta forms,
// suppressed rounds under each override policy, and byte-level rounds,
// lossless and lossy (values, degraded values and coverage). Readings are
// rounded to multiples of 5 so that ties occur: ArgMax's tie-break, Min and
// Max over equal values and CountAbove's strict comparison at its
// threshold all decide some outputs.

constexpr AggregateKind kAllKinds[] = {
    AggregateKind::kWeightedSum, AggregateKind::kWeightedAverage,
    AggregateKind::kWeightedStdDev, AggregateKind::kMin,
    AggregateKind::kMax, AggregateKind::kCount,
    AggregateKind::kCountAbove, AggregateKind::kArgMax};

constexpr OverridePolicy kAllPolicies[] = {
    OverridePolicy::kNone, OverridePolicy::kConservative,
    OverridePolicy::kMedium, OverridePolicy::kAggressive};

struct KindDigests {
  Fnv1a64 images;
  Fnv1a64 analytic;
  Fnv1a64 suppressed;
  Fnv1a64 runtime;
  int degraded_values = 0;

  std::string ToString() const {
    return HexDigest(images.value()) + "/" + HexDigest(analytic.value()) +
           "/" + HexDigest(suppressed.value()) + "/" +
           HexDigest(runtime.value());
  }
};

void AddBits(Fnv1a64& fnv, double value) {
  fnv.Add(std::bit_cast<uint64_t>(value));
}

void AddSorted(Fnv1a64& fnv,
               const std::unordered_map<NodeId, double>& values) {
  std::vector<std::pair<NodeId, double>> sorted(values.begin(),
                                                values.end());
  std::sort(sorted.begin(), sorted.end());
  fnv.Add(sorted.size());
  for (const auto& [node, value] : sorted) {
    fnv.Add(static_cast<uint64_t>(node));
    AddBits(fnv, value);
  }
}

void AddRound(Fnv1a64& fnv, const RoundResult& result) {
  AddBits(fnv, result.energy_mj);
  for (double mj : result.node_energy_mj) AddBits(fnv, mj);
  fnv.Add(static_cast<uint64_t>(result.payload_bytes));
  fnv.Add(static_cast<uint64_t>(result.units));
  fnv.Add(static_cast<uint64_t>(result.overrides));
  AddBits(fnv, result.max_abs_error);
  AddSorted(fnv, result.destination_values);
}

void AddLossy(KindDigests& digests,
              const RuntimeNetwork::LossyResult& result) {
  Fnv1a64& fnv = digests.runtime;
  AddBits(fnv, result.energy_mj);
  fnv.Add(static_cast<uint64_t>(result.payload_bytes));
  fnv.Add(static_cast<uint64_t>(result.attempts));
  AddSorted(fnv, result.destination_values);
  AddSorted(fnv, result.degraded_values);
  digests.degraded_values += static_cast<int>(result.degraded_values.size());
  std::vector<NodeId> destinations;
  for (const auto& [d, coverage] : result.destination_coverage) {
    destinations.push_back(d);
  }
  std::sort(destinations.begin(), destinations.end());
  for (NodeId d : destinations) {
    const auto& coverage = result.destination_coverage.at(d);
    fnv.Add(static_cast<uint64_t>(d));
    fnv.Add(static_cast<uint64_t>(coverage.covered));
    fnv.Add(static_cast<uint64_t>(coverage.expected));
    AddBits(fnv, coverage.coverage);
    fnv.Add(coverage.complete ? 1 : 0);
    fnv.Add(coverage.exact_known ? 1 : 0);
    fnv.Add(coverage.xor_fold);
    for (NodeId s : coverage.sources) fnv.Add(static_cast<uint64_t>(s));
  }
}

std::vector<double> RoundedToFives(const std::vector<double>& values) {
  std::vector<double> out(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    out[i] = 5.0 * std::round(values[i] / 5.0);
  }
  return out;
}

KindDigests DigestKind(AggregateKind kind) {
  Topology topology = MakeGreatDuckIslandLike();
  WorkloadSpec spec;
  spec.destination_count = 8;
  spec.sources_per_destination = 6;
  spec.kind = kind;
  spec.seed = 77;
  Workload workload = GenerateWorkload(topology, spec);
  for (FunctionSpec& function : workload.specs) function.threshold = 20.0;
  workload.RebuildFunctions();
  const System system(topology, workload);
  const FunctionSet& functions = system.workload().functions;
  KindDigests digests;

  for (const std::vector<uint8_t>& image :
       EncodeAllNodeStates(system.compiled(), functions)) {
    digests.images.Add(image.size());
    for (uint8_t byte : image) digests.images.Add(byte);
  }

  ReadingGenerator generator(topology.node_count(), 78);
  std::vector<std::vector<double>> rounds;
  for (int round = 0; round < 4; ++round) {
    if (round > 0) generator.Advance(0.4);
    rounds.push_back(RoundedToFives(generator.values()));
  }

  const PlanExecutor executor = system.MakeExecutor();
  for (const std::vector<double>& readings : rounds) {
    AddRound(digests.analytic, executor.RunRound(readings));
  }
  // The delta forms: each destination's record over round 0, moved to
  // round 1 by one delta per source.
  for (const Task& task : system.workload().tasks) {
    const AggregateFunction& fn = functions.Get(task.destination);
    if (!fn.SupportsDeltas()) continue;
    PartialRecord record = fn.PreAggregate(task.sources[0],
                                           rounds[0][task.sources[0]]);
    for (size_t i = 1; i < task.sources.size(); ++i) {
      NodeId s = task.sources[i];
      record = fn.Merge(record, fn.PreAggregate(s, rounds[0][s]));
    }
    for (NodeId s : task.sources) {
      record = fn.ApplyDelta(
          record, fn.DeltaPreAggregate(s, rounds[0][s], rounds[1][s]));
    }
    for (double field : record.fields) AddBits(digests.analytic, field);
    AddBits(digests.analytic, fn.Evaluate(record));
  }

  if (functions.Get(system.workload().tasks[0].destination)
          .SupportsLinearDeltas()) {
    for (OverridePolicy policy : kAllPolicies) {
      for (int mode = 0; mode < 3; ++mode) {
        PlanExecutor suppressed = system.MakeExecutor();
        suppressed.InitializeState(rounds[0]);
        for (size_t r = 1; r < rounds.size(); ++r) {
          if (mode == 2) {
            AddRound(digests.suppressed,
                     suppressed.RunThresholdSuppressedRound(
                         rounds[r], /*epsilon=*/5.0, policy));
            continue;
          }
          std::vector<bool> changed(rounds[r].size());
          for (size_t n = 0; n < changed.size(); ++n) {
            changed[n] = rounds[r][n] != rounds[r - 1][n];
          }
          AddRound(digests.suppressed,
                   suppressed.RunSuppressedRound(
                       rounds[r], changed, policy,
                       /*replicated_preagg=*/mode == 1));
        }
      }
    }
  }

  RuntimeNetwork network(system.compiled(), functions);
  for (const std::vector<double>& readings : rounds) {
    AddLossy(digests, network.RunRound(readings));
  }
  ChannelOptions channel;
  channel.good_loss = 0.3;
  channel.seed = 79;
  const ChannelModel model(channel);
  RetryPolicy retry;
  retry.max_attempts = 2;
  for (size_t r = 0; r < rounds.size(); ++r) {
    AddLossy(digests, network.RunRoundLossy(
                          rounds[r], model.Bind(static_cast<int>(r)), retry));
  }
  return digests;
}

TEST(AggregateKindGoldenTest, EveryKindMatchesGoldenDigests) {
  // "images/analytic/suppressed/runtime" per kind, in kAllKinds order;
  // the suppressed digest stays at the empty FNV basis for the kinds
  // without linear deltas. Recorded while the planner and the motes still
  // ran separate copies of the per-kind algebra.
  const std::string kGolden[] = {
      "98c1c144f6d1d8dd/ae98cf0a264bb7ac/c10156bc725f323e/7221cad82eccd73d",
      "3b15a07e0c2c1fab/22d69dbc0e24e531/7a4a7e633dcc2a2f/cd0c8b5b748cbb74",
      "9a19379515570c68/7eb52d2c9356ec3c/cbf29ce484222325/addc4b4f22f9e5a5",
      "a678ad2b174665b0/1c4051e95d7e86b1/cbf29ce484222325/5bdb544099634c34",
      "726d2750736e4857/8e2d59e2550ff46d/cbf29ce484222325/6ca89e00d07ead20",
      "84b078bc42e28cdb/fa287d27411c9b9d/cbf29ce484222325/2c04f02e755dec61",
      "c72603df6769b7b8/38d1938d6101fbd5/cbf29ce484222325/a8761732a98b8d60",
      "d36a1724578d61a3/bef5706a08a02cc1/cbf29ce484222325/c082779ee2d954a2",
  };
  int degraded_values = 0;
  for (size_t k = 0; k < std::size(kAllKinds); ++k) {
    KindDigests digests = DigestKind(kAllKinds[k]);
    EXPECT_EQ(digests.ToString(), kGolden[k]) << ToString(kAllKinds[k]);
    degraded_values += digests.degraded_values;
  }
  // The lossy rounds leave destinations incomplete, so the degraded
  // evaluation is pinned too.
  EXPECT_GT(degraded_values, 0);
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

using Hops = std::vector<std::pair<NodeId, NodeId>>;

Hops StdSortUnique(Hops hops) {
  std::sort(hops.begin(), hops.end());
  hops.erase(std::unique(hops.begin(), hops.end()), hops.end());
  return hops;
}

TEST(SortUniqueHopsTest, MatchesStdSortUniqueOnRandomLists) {
  // Node counts around powers of two: 1 (no id bits), 2, exact powers and
  // one past them, and 10k (two 14-bit ids, three 11-bit digits). Ids are
  // drawn with a bias toward the extremes 0 and N - 1.
  Rng rng(0x50127);
  for (int nodes : {1, 2, 3, 4, 5, 64, 65, 1024, 1025, 2048, 2049, 10000}) {
    for (int trial = 0; trial < 8; ++trial) {
      const int size = static_cast<int>(rng.UniformRange(0, 3000));
      Hops hops;
      for (int i = 0; i < size; ++i) {
        auto id = [&]() {
          const int64_t pick = rng.UniformRange(0, 9);
          if (pick == 0) return NodeId{0};
          if (pick == 1) return static_cast<NodeId>(nodes - 1);
          return static_cast<NodeId>(rng.UniformRange(0, nodes - 1));
        };
        const NodeId from = id();
        hops.emplace_back(from, id());
      }
      const Hops want = StdSortUnique(hops);
      SortUniqueHops(hops, nodes);
      ASSERT_EQ(hops, want) << nodes << " nodes, trial " << trial;
    }
  }
}

TEST(SortUniqueHopsTest, EmptyAndAllDuplicateLists) {
  Hops empty;
  SortUniqueHops(empty, 10);
  EXPECT_TRUE(empty.empty());

  Hops same(500, {9, 9});
  SortUniqueHops(same, 10);
  EXPECT_EQ(same, (Hops{{9, 9}}));

  Hops single_node(7, {0, 0});
  SortUniqueHops(single_node, 1);
  EXPECT_EQ(single_node, (Hops{{0, 0}}));
}

TEST(SortUniqueHopsDeathTest, IdsAtOrPastTheNodeCountFail) {
  Hops hops{{0, 1}, {4, 2}};
  EXPECT_DEATH(SortUniqueHops(hops, 4), "outside 4 nodes");
  Hops negative{{-1, 0}};
  EXPECT_DEATH(SortUniqueHops(negative, 4), "outside 4 nodes");
}

}  // namespace
}  // namespace m2m
