#include <algorithm>
#include <memory>
#include <optional>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "plan/dissemination.h"
#include "plan/planner.h"
#include "plan/serialization.h"
#include "sim/base_station.h"
#include "sim/executor.h"
#include "sim/readings.h"
#include "topology/generator.h"
#include "workload/workload.h"

namespace m2m {
namespace {

struct Env {
  explicit Env(uint64_t seed)
      : topology(MakeGreatDuckIslandLike()), paths(topology) {
    WorkloadSpec spec;
    spec.destination_count = 10;
    spec.sources_per_destination = 8;
    spec.seed = seed;
    workload = GenerateWorkload(topology, spec);
    forest = std::make_shared<MulticastForest>(paths, workload.tasks);
    plan = std::make_shared<GlobalPlan>(
        BuildPlan(forest, workload.functions, {}));
    compiled = std::make_shared<CompiledPlan>(
        CompiledPlan::Compile(*plan, workload.functions));
  }

  Topology topology;
  PathSystem paths;
  Workload workload;
  std::shared_ptr<const MulticastForest> forest;
  std::shared_ptr<GlobalPlan> plan;
  std::shared_ptr<CompiledPlan> compiled;
};

TEST(SerializationTest, RoundtripPreservesTables) {
  Env env(61);
  for (NodeId n = 0; n < env.compiled->node_count(); ++n) {
    const NodeStateView original = env.compiled->state(n);
    std::vector<uint8_t> image =
        EncodeNodeState(original, env.workload.functions);
    DecodedNodeState decoded = DecodeNodeState(image);
    ASSERT_EQ(decoded.state.raw_table.size(), original.raw_table.size());
    ASSERT_EQ(decoded.state.preagg_table.size(),
              original.preagg_table.size());
    ASSERT_EQ(decoded.state.partial_table.size(),
              original.partial_table.size());
    ASSERT_EQ(decoded.state.outgoing_table.size(),
              original.outgoing_table.size());
    EXPECT_EQ(decoded.state.is_destination, original.is_destination);
    for (size_t i = 0; i < original.raw_table.size(); ++i) {
      EXPECT_EQ(decoded.state.raw_table[i].source,
                original.raw_table[i].source);
    }
    for (size_t i = 0; i < original.preagg_table.size(); ++i) {
      EXPECT_EQ(decoded.state.preagg_table[i].source,
                original.preagg_table[i].source);
      EXPECT_EQ(decoded.state.preagg_table[i].destination,
                original.preagg_table[i].destination);
      const AggregateFunction& fn =
          env.workload.functions.Get(original.preagg_table[i].destination);
      EXPECT_NEAR(decoded.preagg_meta[i].weight,
                  fn.WeightFor(original.preagg_table[i].source), 1e-6);
      EXPECT_EQ(decoded.preagg_meta[i].kind, fn.kind());
    }
    for (size_t i = 0; i < original.partial_table.size(); ++i) {
      EXPECT_EQ(decoded.state.partial_table[i].destination,
                original.partial_table[i].destination);
      EXPECT_EQ(decoded.state.partial_table[i].expected_contributions,
                original.partial_table[i].expected_contributions);
      EXPECT_EQ(decoded.state.partial_table[i].message_id == -1,
                original.partial_table[i].message_id == -1);
    }
    for (size_t i = 0; i < original.outgoing_table.size(); ++i) {
      EXPECT_EQ(decoded.state.outgoing_table[i].unit_count,
                original.outgoing_table[i].unit_count);
      EXPECT_EQ(decoded.state.outgoing_table[i].recipient,
                original.outgoing_table[i].recipient);
    }
  }
}

TEST(SerializationTest, LocalMessageIdsReferenceOutgoingTable) {
  Env env(62);
  for (NodeId n = 0; n < env.compiled->node_count(); ++n) {
    std::vector<uint8_t> image =
        EncodeNodeState(env.compiled->state(n), env.workload.functions);
    DecodedNodeState decoded = DecodeNodeState(image);
    int outgoing = static_cast<int>(decoded.state.outgoing_table.size());
    for (const RawTableEntry& entry : decoded.state.raw_table) {
      EXPECT_GE(entry.message_id, 0);
      EXPECT_LT(entry.message_id, outgoing);
    }
    for (const PartialTableEntry& entry : decoded.state.partial_table) {
      EXPECT_LT(entry.message_id, outgoing);
    }
  }
}

TEST(SerializationTest, ImagesAreStableAcrossRecompilation) {
  Env a(63);
  Env b(63);
  std::vector<std::vector<uint8_t>> images_a =
      EncodeAllNodeStates(*a.compiled, a.workload.functions);
  std::vector<std::vector<uint8_t>> images_b =
      EncodeAllNodeStates(*b.compiled, b.workload.functions);
  EXPECT_EQ(images_a, images_b);
}

// Fuzz-style robustness suite: node-state images arrive over the radio, so
// the decoder must treat every buffer as hostile — reject malformed input
// via TryDecodeNodeState's nullopt instead of crashing or over-allocating.

TEST(SerializationFuzzTest, CanonicalImagesRoundTripByteIdentically) {
  Env env(70);
  for (NodeId n = 0; n < env.compiled->node_count(); ++n) {
    std::vector<uint8_t> image =
        EncodeNodeState(env.compiled->state(n), env.workload.functions);
    std::optional<DecodedNodeState> decoded = TryDecodeNodeState(image);
    ASSERT_TRUE(decoded.has_value()) << "node " << n;
    EXPECT_EQ(EncodeNodeState(decoded->state, env.workload.functions,
                              decoded->plan_epoch),
              image)
        << "node " << n;
    // The function metadata the image carries for the motes.
    const NodeState& tables = decoded->state;
    ASSERT_EQ(decoded->preagg_meta.size(), tables.preagg_table.size());
    for (size_t i = 0; i < tables.preagg_table.size(); ++i) {
      const PreAggTableEntry& entry = tables.preagg_table[i];
      const AggregateFunction& fn =
          env.workload.functions.Get(entry.destination);
      EXPECT_EQ(decoded->preagg_meta[i].kind, fn.kind());
      EXPECT_EQ(decoded->preagg_meta[i].weight,
                static_cast<float>(fn.WeightFor(entry.source)));
      EXPECT_EQ(decoded->preagg_meta[i].param,
                static_cast<float>(fn.Parameter()));
    }
    ASSERT_EQ(decoded->partial_kinds.size(), tables.partial_table.size());
    for (size_t i = 0; i < tables.partial_table.size(); ++i) {
      EXPECT_EQ(decoded->partial_kinds[i],
                env.workload.functions.Get(tables.partial_table[i].destination)
                    .kind());
    }
  }
}

TEST(SerializationFuzzTest, EveryTruncationIsRejected) {
  Env env(71);
  for (NodeId n = 0; n < std::min<NodeId>(env.compiled->node_count(), 12);
       ++n) {
    std::vector<uint8_t> image =
        EncodeNodeState(env.compiled->state(n), env.workload.functions);
    for (size_t len = 0; len < image.size(); ++len) {
      std::vector<uint8_t> truncated(image.begin(), image.begin() + len);
      EXPECT_FALSE(TryDecodeNodeState(truncated).has_value())
          << "node " << n << " truncated to " << len << "/" << image.size()
          << " bytes decoded successfully";
    }
  }
}

/// True iff `kind` (a decoded kind, as an integer) names an AggregateKind.
bool IsKnownKind(int kind) {
  return kind >= 0 && kind <= static_cast<int>(AggregateKind::kArgMax);
}

/// Every kind an accepted image carries is one a mote can execute.
void ExpectKnownKinds(const DecodedNodeState& decoded) {
  for (const DecodedPreAggMeta& meta : decoded.preagg_meta) {
    EXPECT_TRUE(IsKnownKind(static_cast<int>(meta.kind)));
  }
  for (auto kind : decoded.partial_kinds) {
    EXPECT_TRUE(IsKnownKind(static_cast<int>(kind)));
  }
}

TEST(SerializationFuzzTest, SingleByteCorruptionNeverCrashes) {
  Env env(72);
  Rng rng(404);
  int rejected = 0, accepted = 0;
  for (NodeId n = 0; n < std::min<NodeId>(env.compiled->node_count(), 12);
       ++n) {
    std::vector<uint8_t> image =
        EncodeNodeState(env.compiled->state(n), env.workload.functions);
    for (int trial = 0; trial < 64; ++trial) {
      std::vector<uint8_t> corrupted = image;
      size_t pos = rng.UniformInt(corrupted.size());
      corrupted[pos] ^= static_cast<uint8_t>(1 + rng.UniformInt(255));
      // Must not crash; a flipped float/weight byte may still decode.
      std::optional<DecodedNodeState> decoded = TryDecodeNodeState(corrupted);
      if (decoded.has_value()) {
        ++accepted;
        // Whatever decodes must satisfy the cross-table invariants the
        // runtime indexes by.
        int outgoing = static_cast<int>(decoded->state.outgoing_table.size());
        for (const RawTableEntry& entry : decoded->state.raw_table) {
          ASSERT_GE(entry.message_id, 0);
          ASSERT_LT(entry.message_id, outgoing);
        }
        for (const PartialTableEntry& entry : decoded->state.partial_table) {
          ASSERT_GE(entry.message_id, -1);
          ASSERT_LT(entry.message_id, outgoing);
          ASSERT_GE(entry.expected_contributions, 1);
        }
        ExpectKnownKinds(*decoded);
      } else {
        ++rejected;
      }
    }
  }
  // Sanity: corruption actually exercised both decoder outcomes.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(accepted, 0);
}

TEST(SerializationFuzzTest, RandomGarbageNeverCrashes) {
  Rng rng(505);
  for (int trial = 0; trial < 512; ++trial) {
    std::vector<uint8_t> garbage(rng.UniformInt(200));
    for (uint8_t& byte : garbage) {
      byte = static_cast<uint8_t>(rng.UniformInt(256));
    }
    // Decode must terminate without crashing or over-allocating; most
    // buffers are rejected, and any accepted one must be internally valid
    // (byte-identity is not required here: varints are not canonical).
    std::optional<DecodedNodeState> decoded = TryDecodeNodeState(garbage);
    if (decoded.has_value()) {
      int outgoing = static_cast<int>(decoded->state.outgoing_table.size());
      for (const RawTableEntry& entry : decoded->state.raw_table) {
        ASSERT_GE(entry.message_id, 0);
        ASSERT_LT(entry.message_id, outgoing);
      }
      for (const PartialTableEntry& entry : decoded->state.partial_table) {
        ASSERT_GE(entry.expected_contributions, 1);
        ASSERT_LT(entry.message_id, outgoing);
      }
      ExpectKnownKinds(*decoded);
    }
  }
}

// Structured fuzz: uniform garbage rarely decodes to an image with table
// entries, so this one starts from canonical images of seeded plans (one
// plan per aggregate kind, nodes with non-empty tables only) and applies
// multi-byte mutations, truncations and splices of two images. Many of the
// results still decode, which drives the per-entry checks (kind bytes,
// message ids, contribution counts) that garbage only reaches by chance.
TEST(SerializationFuzzTest, MutatedCanonicalImagesKeepInvariants) {
  std::vector<std::vector<uint8_t>> seeds;
  for (int kind = 0; kind <= static_cast<int>(AggregateKind::kArgMax);
       ++kind) {
    Topology topology = MakeGreatDuckIslandLike();
    PathSystem paths(topology);
    WorkloadSpec spec;
    spec.destination_count = 6;
    spec.sources_per_destination = 6;
    spec.kind = static_cast<AggregateKind>(kind);
    spec.seed = 900 + static_cast<uint64_t>(kind);
    Workload workload = GenerateWorkload(topology, spec);
    GlobalPlan plan =
        BuildPlan(std::make_shared<MulticastForest>(paths, workload.tasks),
                  workload.functions, {});
    CompiledPlan compiled = CompiledPlan::Compile(plan, workload.functions);
    for (NodeId n = 0; n < compiled.node_count(); ++n) {
      const NodeStateView state = compiled.state(n);
      if (state.preagg_table.empty() && state.partial_table.empty()) continue;
      seeds.push_back(EncodeNodeState(state, workload.functions));
    }
  }
  ASSERT_GT(seeds.size(), 40u);

  Rng rng(606);
  const int kTrials = 16384;
  int accepted = 0, accepted_with_entries = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::vector<uint8_t> image = seeds[rng.UniformInt(seeds.size())];
    switch (rng.UniformInt(3)) {
      case 0: {  // Two to eight random byte overwrites.
        const int edits = 2 + static_cast<int>(rng.UniformInt(7));
        for (int e = 0; e < edits; ++e) {
          image[rng.UniformInt(image.size())] =
              static_cast<uint8_t>(rng.UniformInt(256));
        }
        break;
      }
      case 1:  // Truncation, then an optional overwrite.
        image.resize(rng.UniformInt(image.size()));
        if (!image.empty() && rng.Bernoulli(0.5)) {
          image[rng.UniformInt(image.size())] =
              static_cast<uint8_t>(rng.UniformInt(256));
        }
        break;
      default: {  // Splice: a prefix of this image, a suffix of another.
        const std::vector<uint8_t>& other =
            seeds[rng.UniformInt(seeds.size())];
        image.resize(rng.UniformInt(image.size() + 1));
        image.insert(image.end(),
                     other.begin() + static_cast<ptrdiff_t>(
                                         rng.UniformInt(other.size())),
                     other.end());
        break;
      }
    }
    std::optional<DecodedNodeState> decoded = TryDecodeNodeState(image);
    if (!decoded.has_value()) continue;
    ++accepted;
    if (!decoded->state.preagg_table.empty() ||
        !decoded->state.partial_table.empty()) {
      ++accepted_with_entries;
    }
    int outgoing = static_cast<int>(decoded->state.outgoing_table.size());
    for (const RawTableEntry& entry : decoded->state.raw_table) {
      ASSERT_GE(entry.message_id, 0);
      ASSERT_LT(entry.message_id, outgoing);
    }
    for (const PartialTableEntry& entry : decoded->state.partial_table) {
      ASSERT_GE(entry.message_id, -1);
      ASSERT_LT(entry.message_id, outgoing);
      ASSERT_GE(entry.expected_contributions, 1);
    }
    ExpectKnownKinds(*decoded);
  }
  // The mutations must reach the entry checks, not only the rejections.
  EXPECT_GT(accepted_with_entries, 300) << accepted;
  EXPECT_GT(kTrials - accepted, 200) << accepted_with_entries;
}

TEST(SerializationFuzzTest, UnknownFunctionKindIsRejected) {
  // One pre-aggregation entry (source 1 -> destination 2, weight 1.0f,
  // parameter 0) and one partial entry consumed at its destination, with
  // the given kind bytes. A kind past kArgMax would abort the mote in the
  // middle of a round, so the image must not decode at all.
  auto image = [](uint8_t preagg_kind, uint8_t partial_kind) {
    return std::vector<uint8_t>{
        0x00, 0x00,                                      // epoch, raw_count
        0x01, 0x01, 0x02, preagg_kind,                   // preagg entry
        0x00, 0x00, 0x80, 0x3f, 0x00, 0x00, 0x00, 0x00,  // weight, param
        0x01, 0x02, 0x01, 0x00, partial_kind,            // partial entry
        0x00, 0x01};                                     // outgoing, is_dest
  };
  const uint8_t last = static_cast<uint8_t>(AggregateKind::kArgMax);
  std::optional<DecodedNodeState> valid = TryDecodeNodeState(image(0, last));
  ASSERT_TRUE(valid.has_value());
  EXPECT_EQ(valid->preagg_meta[0].kind, AggregateKind::kWeightedSum);
  EXPECT_EQ(valid->partial_kinds[0], AggregateKind::kArgMax);
  EXPECT_FALSE(TryDecodeNodeState(image(99, 0)).has_value());
  EXPECT_FALSE(TryDecodeNodeState(image(0, last + 1)).has_value());
}

TEST(SerializationFuzzTest, CountPrefixBeyondBufferIsRejected) {
  // A claimed table size far beyond the remaining bytes must be rejected
  // up front (no reserve/loop driven by the hostile count).
  std::vector<uint8_t> image = {0xff, 0xff, 0xff, 0xff, 0x0f};
  EXPECT_FALSE(TryDecodeNodeState(image).has_value());
}

TEST(SerializationFuzzTest, TruncatedVarintAtEpochPrefixIsRejected) {
  // The plan-epoch varint is the first field of every image; a buffer that
  // ends mid-varint (continuation bit set, no terminator byte) must be
  // rejected, not read past the end.
  EXPECT_FALSE(TryDecodeNodeState({0x80}).has_value());
  EXPECT_FALSE(
      TryDecodeNodeState({0xff, 0xff, 0xff, 0xff, 0xff}).has_value());
  // An unterminated varint longer than 64 bits latches the error too.
  EXPECT_FALSE(TryDecodeNodeState(std::vector<uint8_t>(11, 0x80))
                   .has_value());
  // A terminated epoch beyond uint32 is out of the wire domain.
  EXPECT_FALSE(
      TryDecodeNodeState({0x80, 0x80, 0x80, 0x80, 0x10}).has_value());
}

TEST(SerializationFuzzTest, OversizedCountFieldsAreRejectedUpFront) {
  // Counts that fit the remaining byte count but not the per-entry minimum
  // encoded size (raw 2, preagg 11, partial 4, outgoing 2 bytes). The
  // decoder must reject them before reserving or looping.
  // epoch=0, raw_count=3 with only 4 payload bytes left (3 entries need 6).
  EXPECT_FALSE(
      TryDecodeNodeState({0x00, 0x03, 0x01, 0x01, 0x01, 0x01}).has_value());
  // epoch=0, raw_count=0, preagg_count=5 with 10 bytes left (needs 55).
  std::vector<uint8_t> preagg = {0x00, 0x00, 0x05};
  preagg.insert(preagg.end(), 10, 0x01);
  EXPECT_FALSE(TryDecodeNodeState(preagg).has_value());
  // epoch=0, raw=0, preagg=0, partial_count=4 with 8 bytes left (needs 16).
  std::vector<uint8_t> partial = {0x00, 0x00, 0x00, 0x04};
  partial.insert(partial.end(), 8, 0x01);
  EXPECT_FALSE(TryDecodeNodeState(partial).has_value());
  // epoch=0, all tables empty, outgoing_count=2 with only the trailing
  // is_destination byte left.
  EXPECT_FALSE(
      TryDecodeNodeState({0x00, 0x00, 0x00, 0x00, 0x02, 0x00}).has_value());
}

TEST(SerializationFuzzTest, HugeCountCannotWrapTheBoundsCheck) {
  // raw_count = 2^63: a bounds check of the form `count * entry_size >
  // remaining` would wrap uint64 and pass, driving an astronomically long
  // loop. The decoder must reject it in O(1).
  std::vector<uint8_t> image = {0x00};  // epoch = 0.
  image.insert(image.end(), 9, 0x80);   // varint 2^63...
  image.push_back(0x01);                // ...terminated.
  image.insert(image.end(), 16, 0x01);  // Some plausible payload bytes.
  EXPECT_FALSE(TryDecodeNodeState(image).has_value());
}

TEST(DisseminationTest, FullCoversAllParticipatingNodes) {
  Env env(64);
  NodeId base = PickBaseStation(env.topology);
  DisseminationCost cost = ComputeFullDissemination(
      *env.compiled, env.workload.functions, env.paths, base,
      EnergyModel{});
  EXPECT_GT(cost.nodes_updated, 0);
  EXPECT_GT(cost.state_bytes, 0);
  EXPECT_GT(cost.energy_mj, 0.0);
  EXPECT_GT(cost.packets, 0);
  // No more nodes than exist.
  EXPECT_LE(cost.nodes_updated, env.topology.node_count());
}

TEST(DisseminationTest, IncrementalIsZeroForIdenticalPlans) {
  Env env(65);
  NodeId base = PickBaseStation(env.topology);
  DisseminationCost cost = ComputeIncrementalDissemination(
      *env.compiled, env.workload.functions, *env.compiled,
      env.workload.functions, env.paths, base, EnergyModel{});
  EXPECT_EQ(cost.nodes_updated, 0);
  EXPECT_EQ(cost.energy_mj, 0.0);
}

TEST(DisseminationTest, LocalizedChangeUpdatesFewNodes) {
  Env env(66);
  NodeId base = PickBaseStation(env.topology);
  // Add one source to one destination.
  NodeId d = env.workload.tasks[0].destination;
  NodeId fresh = kInvalidNode;
  for (NodeId n = 0; n < env.topology.node_count(); ++n) {
    const auto& sources = env.workload.tasks[0].sources;
    if (n != d &&
        std::find(sources.begin(), sources.end(), n) == sources.end()) {
      fresh = n;
      break;
    }
  }
  Workload updated = WithSourceAdded(env.workload, fresh, d, 1.0);
  auto updated_forest =
      std::make_shared<MulticastForest>(env.paths, updated.tasks);
  GlobalPlan updated_plan =
      UpdatePlan(*env.plan, updated_forest, updated.functions);
  CompiledPlan updated_compiled =
      CompiledPlan::Compile(updated_plan, updated.functions);

  DisseminationCost full = ComputeFullDissemination(
      updated_compiled, updated.functions, env.paths, base, EnergyModel{});
  DisseminationCost incremental = ComputeIncrementalDissemination(
      *env.compiled, env.workload.functions, updated_compiled,
      updated.functions, env.paths, base, EnergyModel{});
  EXPECT_LT(incremental.nodes_updated, full.nodes_updated);
  EXPECT_LT(incremental.energy_mj, full.energy_mj);
  EXPECT_GT(incremental.nodes_updated, 0);
  // Corollary 1 locality: far fewer nodes than the whole plan.
  EXPECT_LE(incremental.nodes_updated, full.nodes_updated / 2);
}

TEST(BaseStationTest, PickIsDeterministicCornerNode) {
  Topology topo = MakeGreatDuckIslandLike();
  NodeId base = PickBaseStation(topo);
  EXPECT_EQ(base, PickBaseStation(topo));
  // No node is strictly closer to the origin corner.
  double base_dist = DistanceSquared(topo.position(base), Point{0, 0});
  for (NodeId n = 0; n < topo.node_count(); ++n) {
    EXPECT_GE(DistanceSquared(topo.position(n), Point{0, 0}),
              base_dist - 1e-12);
  }
}

TEST(BaseStationTest, RoundChargesBothDirections) {
  Env env(67);
  NodeId base = PickBaseStation(env.topology);
  BaseStationRoundResult result = SimulateBaseStationRound(
      env.topology, env.paths, env.workload, base, EnergyModel{});
  EXPECT_GT(result.uplink_mj, 0.0);
  EXPECT_GT(result.downlink_mj, 0.0);
  EXPECT_NEAR(result.energy_mj, result.uplink_mj + result.downlink_mj,
              1e-12);
  double per_node = 0.0;
  for (double e : result.node_energy_mj) per_node += e;
  EXPECT_NEAR(per_node, result.energy_mj, 1e-9);
}

TEST(BaseStationTest, BottleneckConcentratesNearBaseStation) {
  Env env(68);
  NodeId base = PickBaseStation(env.topology);
  BaseStationRoundResult result = SimulateBaseStationRound(
      env.topology, env.paths, env.workload, base, EnergyModel{});
  // The hottest node is the base station or one of its radio neighbors.
  NodeId hottest = 0;
  for (NodeId n = 1; n < env.topology.node_count(); ++n) {
    if (result.node_energy_mj[n] > result.node_energy_mj[hottest]) {
      hottest = n;
    }
  }
  EXPECT_TRUE(hottest == base || env.topology.AreNeighbors(hottest, base))
      << "hottest node " << hottest << " is not near base " << base;
}

TEST(BaseStationTest, InNetworkControlAvoidsTheBottleneck) {
  Env env(69);
  NodeId base = PickBaseStation(env.topology);
  BaseStationRoundResult bs = SimulateBaseStationRound(
      env.topology, env.paths, env.workload, base, EnergyModel{});
  PlanExecutor executor(env.compiled, env.workload.functions, EnergyModel{});
  ReadingGenerator readings(env.topology.node_count(), 5);
  RoundResult in_network = executor.RunRound(readings.values());
  double bs_max = 0.0;
  double in_max = 0.0;
  for (double e : bs.node_energy_mj) bs_max = std::max(bs_max, e);
  for (double e : in_network.node_energy_mj) in_max = std::max(in_max, e);
  // The paper's bottleneck argument: the hottest node under out-of-network
  // control burns substantially more than under in-network control.
  EXPECT_GT(bs_max, 1.5 * in_max);
}

}  // namespace
}  // namespace m2m
