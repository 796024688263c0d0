// Mobility and partition-tolerance suite: continuous-movement link churn
// (random waypoint / velocity drift) composed with fault schedules,
// adversarial channels, and workload churn over the self-healing runtime.
// Pins four contracts: (1) mobility draws from a dedicated RNG stream, so
// composing a zero-velocity trace leaves existing runs byte-identical;
// (2) destinations cut off by a believed partition report *degraded with a
// partition cause*, never a stale "complete"; (3) split islands are
// believed partitioned (not dead) and merge back through forced full-image
// reconciliation — including when both lineages bumped epochs
// independently; (4) the detector's flap damping quarantines an
// oscillating link without ever exiling it permanently.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "agg/aggregate_function.h"
#include "fault_test_util.h"
#include "obs/metrics.h"
#include "plan/consistency.h"
#include "plan/node_tables.h"
#include "plan/planner.h"
#include "plan/serialization.h"
#include "routing/multicast.h"
#include "routing/path_system.h"
#include "runtime/channel.h"
#include "runtime/detector.h"
#include "runtime/network.h"
#include "sim/base_station.h"
#include "sim/executor.h"
#include "sim/fault_schedule.h"
#include "sim/mobility_sim.h"
#include "sim/readings.h"
#include "sim/self_healing.h"
#include "topology/generator.h"
#include "topology/mobility.h"
#include "topology/topology.h"
#include "workload/workload.h"

namespace m2m {
namespace {

using fault_test::Destinations;
using fault_test::ReconciliationReference;
using fault_test::ValuesClose;

// --- Mobility trace unit tests --------------------------------------------

TEST(MobilityTraceTest, StaticTraceMasksNothing) {
  Topology topology = MakeGreatDuckIslandLike();
  MobilityOptions options;
  options.model = MobilityModel::kStatic;
  options.rounds = 8;
  options.speed_m_per_round = 5.0;  // Ignored by the static model.
  MobilityTrace trace = MobilityTrace::Generate(topology, options);
  EXPECT_EQ(trace.rounds(), 8);
  EXPECT_TRUE(trace.events().empty());
  for (int round = 0; round <= 8; ++round) {
    EXPECT_EQ(trace.down_link_count(round), 0) << "round " << round;
  }
  // Zero speed masks nothing either, whatever the model.
  MobilityOptions zero;
  zero.model = MobilityModel::kVelocityDrift;
  zero.rounds = 8;
  zero.speed_m_per_round = 0.0;
  MobilityTrace still = MobilityTrace::Generate(topology, zero);
  EXPECT_TRUE(still.events().empty());
  EXPECT_EQ(still.PositionsAt(8), topology.positions());
}

TEST(MobilityTraceTest, GenerateIsDeterministicInSeed) {
  Topology topology = MakeGreatDuckIslandLike();
  MobilityOptions options;
  options.model = MobilityModel::kVelocityDrift;
  options.rounds = 12;
  options.speed_m_per_round = 6.0;
  options.seed = 42;
  MobilityTrace a = MobilityTrace::Generate(topology, options);
  MobilityTrace b = MobilityTrace::Generate(topology, options);
  EXPECT_EQ(a.events(), b.events());
  EXPECT_EQ(a.Describe(), b.Describe());
  for (int round = 0; round <= 12; ++round) {
    EXPECT_EQ(a.PositionsAt(round), b.PositionsAt(round));
  }
  options.seed = 43;
  MobilityTrace c = MobilityTrace::Generate(topology, options);
  EXPECT_NE(a.PositionsAt(12), c.PositionsAt(12));
}

TEST(MobilityTraceTest, AnchoredNodesNeverMove) {
  Topology topology = MakeGreatDuckIslandLike();
  MobilityOptions options;
  options.model = MobilityModel::kRandomWaypoint;
  options.rounds = 10;
  options.speed_m_per_round = 8.0;
  options.anchored = {0, 5, 12};
  MobilityTrace trace = MobilityTrace::Generate(topology, options);
  bool someone_moved = false;
  for (int round = 1; round <= 10; ++round) {
    for (NodeId anchor : options.anchored) {
      EXPECT_EQ(trace.PositionsAt(round)[anchor],
                topology.positions()[anchor])
          << "anchor " << anchor << " moved at round " << round;
    }
    if (trace.PositionsAt(round) != trace.PositionsAt(0)) {
      someone_moved = true;
    }
  }
  EXPECT_TRUE(someone_moved);
}

TEST(MobilityTraceTest, DriftProducesMakeAndBreakChurn) {
  Topology topology = MakeGreatDuckIslandLike();
  MobilityOptions options;
  options.model = MobilityModel::kVelocityDrift;
  options.rounds = 30;
  options.speed_m_per_round = 8.0;
  MobilityTrace trace = MobilityTrace::Generate(topology, options);
  EXPECT_GT(trace.total_breaks(), 0);
  EXPECT_GT(trace.total_makes(), 0);  // Drifters come back into range too.
  // Events are ordered by (round, a, b) with a < b and consistent with the
  // per-round down sets.
  int last_round = 0;
  for (const LinkEvent& event : trace.events()) {
    EXPECT_GE(event.round, last_round);
    last_round = event.round;
    EXPECT_LT(event.a, event.b);
    EXPECT_EQ(trace.LinkUpAt(event.round, event.a, event.b), event.up);
  }
}

TEST(MobilityTraceTest, ScriptedTraceControlsLinkStateExactly) {
  // A 3-node line, spacing 40 m, range 50 m: only adjacent links exist.
  Topology topology = MakeGrid(3, 1, 40.0, 50.0);
  std::vector<std::vector<Point>> positions(4, topology.positions());
  positions[1][2].x += 30.0;  // Round 1: link 1-2 stretches to 70 m.
  positions[2][2].x += 30.0;  // Round 2: still split.
  // Round 3: node 2 returns.
  MobilityTrace trace(topology, std::move(positions));
  EXPECT_TRUE(trace.LinkUpAt(0, 1, 2));
  EXPECT_FALSE(trace.LinkUpAt(1, 1, 2));
  EXPECT_FALSE(trace.LinkUpAt(2, 2, 1));  // Orientation-independent.
  EXPECT_TRUE(trace.LinkUpAt(3, 1, 2));
  EXPECT_TRUE(trace.LinkUpAt(1, 0, 1));  // The untouched link stays up.
  // Non-deployment pairs are never masked.
  EXPECT_TRUE(trace.LinkUpAt(1, 0, 2));
  ASSERT_EQ(trace.events().size(), 2u);
  EXPECT_EQ(trace.events()[0], (LinkEvent{1, 1, 2, false}));
  EXPECT_EQ(trace.events()[1], (LinkEvent{3, 1, 2, true}));
  EXPECT_EQ(trace.DownLinksAt(1),
            (std::vector<std::pair<NodeId, NodeId>>{{1, 2}}));
  // Queries past the last scripted round clamp to the final state.
  EXPECT_TRUE(trace.LinkUpAt(99, 1, 2));
}

TEST(ComponentMapTest, LabelsComponentsAndDeadNodes) {
  Topology topology = MakeGrid(6, 1, 40.0, 50.0);  // Line 0-1-2-3-4-5.
  ComponentMap whole = BuildComponents(topology);
  EXPECT_EQ(whole.component_count, 1);
  EXPECT_TRUE(whole.SameComponent(0, 5));

  ComponentMap split =
      BuildComponents(Topology::WithFailures(topology, {{2, 3}}, {5}));
  EXPECT_EQ(split.component_count, 3);
  EXPECT_TRUE(split.SameComponent(0, 2));
  EXPECT_TRUE(split.SameComponent(3, 4));
  EXPECT_FALSE(split.SameComponent(2, 3));
  EXPECT_EQ(split.ComponentOf(5), 2);  // Dead: present but isolated.
  EXPECT_EQ(split.Members(0), (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(split.Members(1), (std::vector<NodeId>{3, 4}));
  EXPECT_EQ(split.Sizes(), (std::vector<int>{3, 2, 1}));
}

// --- Ledger partition classification --------------------------------------

TEST(SuspicionLedgerPartitionTest, MultiNodeIslandIsPartitionedNotDead) {
  Topology topology = MakeGrid(6, 1, 40.0, 50.0);
  SuspicionLedger legacy(&topology, 0);
  SuspicionLedger aware(&topology, 0);
  aware.set_partition_aware(true);

  // Cutting 2-3 strands the island {3, 4, 5}.
  legacy.RecordSuspicion(2, 3);
  aware.RecordSuspicion(2, 3);

  // Legacy inference (sound under survivors-stay-connected): all dead.
  EXPECT_EQ(legacy.believed_dead(), (std::vector<NodeId>{3, 4, 5}));
  EXPECT_TRUE(legacy.believed_partitioned().empty());

  // Partition-aware: a 3-node island is alive, just unreachable.
  EXPECT_TRUE(aware.believed_dead().empty());
  EXPECT_EQ(aware.believed_partitioned(), (std::vector<NodeId>{3, 4, 5}));
  EXPECT_EQ(aware.partition_region_count(), 1);
  // Both plan over a graph in which the island is unreachable.
  for (const SuspicionLedger* ledger : {&legacy, &aware}) {
    EXPECT_EQ(ledger->belief_graph().HopDistancesFrom(0),
              (std::vector<int>{0, 1, 2, -1, -1, -1}));
  }

  // A singleton unreachable component is still believed dead: every one of
  // its own links was independently reported, which only death produces.
  aware.RecordSuspicion(4, 5);
  EXPECT_EQ(aware.believed_dead(), (std::vector<NodeId>{5}));
  EXPECT_EQ(aware.believed_partitioned(), (std::vector<NodeId>{3, 4}));

  // Healing both cuts merges the island back.
  aware.RecordReadmission(2, 3);
  aware.RecordReadmission(4, 5);
  EXPECT_TRUE(aware.believed_partitioned().empty());
  EXPECT_TRUE(aware.believed_dead().empty());
  EXPECT_EQ(aware.partition_region_count(), 0);
}

// --- Detector flap damping (oscillating-link regression) ------------------

// Drives a 2-node detector through scripted link-up/link-down rounds.
struct FlapHarness {
  Topology topology = MakeGrid(2, 1, 40.0, 50.0);
  FailureDetector detector;
  int round = 0;

  explicit FlapHarness(DetectorOptions options)
      : detector(topology, options) {}

  FailureDetector::RoundReport Step(bool link_up) {
    auto delivers = [link_up](NodeId, NodeId, int) { return link_up; };
    auto report = detector.ObserveRound(round, {}, delivers,
                                        [](NodeId) { return true; });
    ++round;
    return report;
  }
};

TEST(DetectorFlapTest, DefaultOptionsKeepLegacyProbation) {
  FlapHarness harness{DetectorOptions{}};  // backoff factor 1 = legacy.
  for (int cycle = 0; cycle < 4; ++cycle) {
    harness.Step(false);
    harness.Step(false);
    ASSERT_TRUE(harness.detector.Suspects(0, 1)) << "cycle " << cycle;
    // Legacy: probation never escalates, flap history never accumulates.
    EXPECT_EQ(harness.detector.required_probation(0, 1),
              DetectorOptions{}.probation_rounds);
    EXPECT_EQ(harness.detector.flap_count(0, 1), 0);
    harness.Step(true);
    auto report = harness.Step(true);
    EXPECT_EQ(report.readmitted.size(), 2u) << "cycle " << cycle;
    EXPECT_FALSE(harness.detector.Suspects(0, 1));
  }
}

TEST(DetectorFlapTest, OscillatingLinkEscalatesQuarantine) {
  DetectorOptions options;
  options.suspicion_threshold = 2;
  options.probation_rounds = 2;
  options.probation_backoff_factor = 2;
  options.max_probation_rounds = 8;
  options.flap_forgiveness_rounds = 100;
  FlapHarness harness{options};

  // First suspicion: base probation.
  harness.Step(false);
  harness.Step(false);
  ASSERT_TRUE(harness.detector.Suspects(0, 1));
  EXPECT_EQ(harness.detector.required_probation(0, 1), 2);
  harness.Step(true);
  harness.Step(true);
  EXPECT_FALSE(harness.detector.Suspects(0, 1));

  // Each re-suspicion doubles the required probation: 4, then 8 (capped).
  for (int expected : {4, 8, 8}) {
    harness.Step(false);
    harness.Step(false);
    ASSERT_TRUE(harness.detector.Suspects(0, 1));
    EXPECT_EQ(harness.detector.required_probation(0, 1), expected);
    // While oscillating faster than the requirement, the link STAYS
    // quarantined — a 2-up/2-down flapper never storms the planner.
    harness.Step(true);
    harness.Step(true);
    EXPECT_TRUE(harness.detector.Suspects(0, 1));
    for (int i = 0; i < expected; ++i) harness.Step(true);
    EXPECT_FALSE(harness.detector.Suspects(0, 1))
        << "required " << expected;
  }
  EXPECT_GT(harness.detector.flap_count(0, 1), 0);
}

TEST(DetectorFlapTest, CapGuaranteesReadmissionAfterStabilization) {
  DetectorOptions options;
  options.probation_backoff_factor = 4;
  options.max_probation_rounds = 6;
  FlapHarness harness{options};
  // Many flap cycles: probation escalates but can never exceed the cap.
  for (int cycle = 0; cycle < 10; ++cycle) {
    harness.Step(false);
    harness.Step(false);
    ASSERT_TRUE(harness.detector.Suspects(0, 1));
    EXPECT_LE(harness.detector.required_probation(0, 1), 6);
    for (int i = 0; i < 6; ++i) harness.Step(true);
    EXPECT_FALSE(harness.detector.Suspects(0, 1))
        << "cycle " << cycle << ": link exiled past the cap";
  }
  // Once genuinely stable, the link stays trusted.
  for (int i = 0; i < 20; ++i) harness.Step(true);
  EXPECT_FALSE(harness.detector.Suspects(0, 1));
  EXPECT_EQ(harness.detector.missed_rounds(0, 1), 0);
}

TEST(DetectorFlapTest, ForgivenessResetsEscalation) {
  DetectorOptions options;
  options.probation_rounds = 2;
  options.probation_backoff_factor = 2;
  options.max_probation_rounds = 16;
  options.flap_forgiveness_rounds = 10;
  FlapHarness harness{options};

  harness.Step(false);
  harness.Step(false);
  EXPECT_EQ(harness.detector.required_probation(0, 1), 2);
  harness.Step(true);
  harness.Step(true);
  harness.Step(false);
  harness.Step(false);
  EXPECT_EQ(harness.detector.required_probation(0, 1), 4);  // Escalated.
  for (int i = 0; i < 4; ++i) harness.Step(true);
  EXPECT_FALSE(harness.detector.Suspects(0, 1));

  // A long quiet stretch clears the flap record...
  for (int i = 0; i < 12; ++i) harness.Step(true);
  // ...so the next suspicion starts from the base probation again.
  harness.Step(false);
  harness.Step(false);
  EXPECT_EQ(harness.detector.required_probation(0, 1), 2);
  EXPECT_EQ(harness.detector.flap_count(0, 1), 1);
}

// --- RNG stream separation (20 seeds) -------------------------------------

// One self-healing run over a fault schedule, optionally masked by a
// mobility trace. Returns the byte-exact event trace.
std::string RunScheduleTrace(const Topology& topology,
                             const Workload& workload,
                             const FaultSchedule& schedule, NodeId base,
                             uint64_t readings_seed, int rounds,
                             const MobilityTrace* mobility) {
  EventTrace trace;
  trace.Append(schedule.Describe());
  SelfHealingRuntime runtime(topology, workload, base, SelfHealingOptions{});
  for (int round = 0; round < rounds; ++round) {
    ReadingGenerator readings(topology.node_count(),
                              readings_seed + static_cast<uint64_t>(round));
    LossyLinkModel physical;
    physical.attempt_delivers = [&schedule, round](NodeId from, NodeId to,
                                                   int attempt) {
      return schedule.AttemptDelivers(round, from, to, attempt);
    };
    physical.node_alive = [&schedule, round](NodeId n) {
      return schedule.NodeAliveAt(round, n);
    };
    if (mobility != nullptr) {
      physical = WithMobility(physical, *mobility, round);
    }
    runtime.RunRound(round, readings.values(), physical, &trace);
  }
  return trace.ToString();
}

// Mobility must draw from its own dedicated RNG stream: generating a trace
// (even a vigorous one) perturbs no fault-schedule or readings draw, and a
// zero-velocity trace composed into the link model leaves the whole run
// byte-identical.
class RngStreamSeparation : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RngStreamSeparation, ZeroVelocityTraceIsByteIdentical) {
  const uint64_t seed = GetParam();
  Topology topology = MakeGreatDuckIslandLike();
  WorkloadSpec spec;
  spec.destination_count = 4;
  spec.sources_per_destination = 4;
  spec.seed = seed * 17 + 3;
  Workload workload = GenerateWorkload(topology, spec);
  NodeId base = PickBaseStation(topology);

  std::vector<NodeId> protected_nodes = Destinations(workload);
  protected_nodes.push_back(base);
  FaultScheduleOptions fault_options;
  fault_options.rounds = 8;
  fault_options.seed = seed;
  FaultSchedule schedule =
      FaultSchedule::Generate(topology, protected_nodes, fault_options);

  std::string bare = RunScheduleTrace(topology, workload, schedule, base,
                                      seed + 99, 10, nullptr);

  // Generating a *moving* trace between the two runs must not perturb
  // anything: its draws live on the dedicated mobility stream.
  MobilityOptions vigorous;
  vigorous.model = MobilityModel::kVelocityDrift;
  vigorous.rounds = 10;
  vigorous.speed_m_per_round = 9.0;
  vigorous.seed = seed;
  MobilityTrace moving = MobilityTrace::Generate(topology, vigorous);
  EXPECT_GT(moving.total_breaks() + moving.total_makes(), 0);

  MobilityOptions still;
  still.model = MobilityModel::kRandomWaypoint;
  still.rounds = 10;
  still.speed_m_per_round = 0.0;
  still.seed = seed;
  MobilityTrace zero_velocity = MobilityTrace::Generate(topology, still);
  EXPECT_TRUE(zero_velocity.events().empty());

  std::string masked = RunScheduleTrace(topology, workload, schedule, base,
                                        seed + 99, 10, &zero_velocity);
  EXPECT_EQ(bare, masked) << "seed " << seed;

  // The schedule itself regenerates byte-identically after mobility drew.
  FaultSchedule again =
      FaultSchedule::Generate(topology, protected_nodes, fault_options);
  EXPECT_EQ(schedule.Describe(), again.Describe()) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(TwentySeeds, RngStreamSeparation,
                         ::testing::Range<uint64_t>(1, 21));

// --- Scripted split / merge partition tolerance ---------------------------

// Line deployment 0-1-2-...-6 (spacing 40 m, range 50 m), base at node 0.
// Rounds [3, 9]: nodes {4, 5, 6} shift 30 m right, breaking link 3-4 and
// stranding a 3-node island. Round 10: they return. Deterministic, so the
// partition / merge latencies are pinned exactly.
struct SplitMergeRun {
  std::string trace;
  int first_partition_round = -1;  ///< Base first believes {4,5,6} split.
  int first_merged_round = -1;     ///< Beliefs clear again.
  bool island_ever_believed_dead = false;
  std::vector<std::string> overlay_errors;
  int64_t merge_reconciliations = 0;
  int64_t partition_events = 0;
  int64_t merge_events = 0;
  int final_pending_installs = -1;
  std::unordered_map<NodeId, double> final_values;
  std::vector<NodeId> final_incomplete;
  std::optional<GlobalPlan> final_plan;
};

SplitMergeRun RunSplitMerge(uint64_t readings_seed) {
  Topology topology = MakeGrid(7, 1, 40.0, 50.0);
  Workload workload;
  workload.tasks = {Task{2, {1, 5}}, Task{5, {1, 2}}};
  FunctionSpec near_spec;
  near_spec.kind = AggregateKind::kWeightedSum;
  near_spec.weights = {{1, 1.0}, {5, 2.0}};
  FunctionSpec far_spec;
  far_spec.kind = AggregateKind::kWeightedSum;
  far_spec.weights = {{1, 1.0}, {2, 3.0}};
  workload.specs = {near_spec, far_spec};
  workload.RebuildFunctions();

  const int kSplitRound = 3;
  const int kMergeRound = 10;
  const int kTotalRounds = 20;
  std::vector<std::vector<Point>> positions;
  for (int round = 0; round < kTotalRounds; ++round) {
    std::vector<Point> at = topology.positions();
    if (round >= kSplitRound && round < kMergeRound) {
      for (NodeId n : {4, 5, 6}) at[n].x += 30.0;
    }
    positions.push_back(std::move(at));
  }
  MobilityTrace trace_mobility(topology, std::move(positions));

  SelfHealingOptions options;
  options.partition_aware = true;
  obs::MetricsRegistry metrics;
  SelfHealingRuntime runtime(topology, workload, /*base=*/0, options);
  runtime.set_metrics(&metrics);
  ReconciliationReference reconciliations(runtime, metrics, /*base=*/0);

  SplitMergeRun run;
  EventTrace trace;
  auto overlay_error = [&run](int round, const std::string& what) {
    std::ostringstream os;
    os << "r" << round << ": " << what;
    run.overlay_errors.push_back(os.str());
  };

  bool was_partitioned = false;
  for (int round = 0; round < kTotalRounds; ++round) {
    ReadingGenerator readings(topology.node_count(),
                              readings_seed + static_cast<uint64_t>(round));
    LossyLinkModel physical;
    physical.attempt_delivers = [](NodeId, NodeId, int) { return true; };
    physical = WithMobility(physical, trace_mobility, round);

    SelfHealingRoundResult result =
        runtime.RunRound(round, readings.values(), physical, &trace);
    reconciliations.CheckRound(round, result.replanned);

    if (!result.believed_partitioned.empty() &&
        run.first_partition_round < 0) {
      run.first_partition_round = round;
    }
    if (run.first_partition_round >= 0 && run.first_merged_round < 0 &&
        result.believed_partitioned.empty()) {
      run.first_merged_round = round;
    }
    if (!runtime.ledger().believed_dead().empty()) {
      run.island_ever_believed_dead = true;
    }

    // The "never stale complete" contract, pinned while the split is
    // believed: destination 2 is degraded by the partition (source 5 cut
    // off), destination 5 is unreachable outright — and neither round may
    // claim complete coverage of the ORIGINAL task for destination 2.
    if (!result.believed_partitioned.empty()) {
      const auto near_it = result.partition_status.find(2);
      if (near_it == result.partition_status.end()) {
        overlay_error(round, "destination 2 missing partition status");
      } else {
        const DestinationPartitionStatus& status = near_it->second;
        if (!status.degraded || !status.degraded_by_partition) {
          overlay_error(round, "destination 2 not degraded-by-partition");
        }
        if (status.partitioned_sources != std::vector<NodeId>{5}) {
          overlay_error(round, "destination 2 partitioned sources wrong");
        }
        if (status.original_coverage >= 1.0) {
          overlay_error(round, "destination 2 claims full coverage");
        }
        if (!status.destination_reachable) {
          overlay_error(round, "destination 2 wrongly unreachable");
        }
      }
      const auto far_it = result.partition_status.find(5);
      if (far_it == result.partition_status.end()) {
        overlay_error(round, "destination 5 missing partition status");
      } else if (far_it->second.destination_reachable ||
                 !far_it->second.degraded_by_partition) {
        overlay_error(round, "destination 5 should be cut off");
      }
      // Data plane: destination 2 must never report a complete aggregate
      // over the original source count while the split is believed. The
      // round's data phase runs before belief updates, so the check only
      // binds when the partition was already believed entering the round
      // (a merge or a late stale report can flip belief mid-round).
      auto cov_it = result.data.destination_coverage.find(2);
      if (was_partitioned && cov_it != result.data.destination_coverage.end() &&
          cov_it->second.complete && cov_it->second.expected == 2) {
        overlay_error(round, "stale complete over the original task");
      }
    }
    was_partitioned = !result.believed_partitioned.empty();

    if (round == kTotalRounds - 1) {
      run.final_values = result.data.destination_values;
      run.final_incomplete = result.data.incomplete_destinations;
      run.final_pending_installs = result.pending_installs;
    }
  }
  run.merge_reconciliations =
      metrics.Total("partition.merge_reconciliations");
  run.partition_events = metrics.Total("partition.partition_events");
  run.merge_events = metrics.Total("partition.merge_events");
  run.final_plan = runtime.plan();
  run.trace = trace.ToString();
  return run;
}

TEST(PartitionToleranceTest, SplitIslandDegradesThenMergesAndReconciles) {
  SplitMergeRun run = RunSplitMerge(/*readings_seed=*/777);
  const DetectorOptions detector = SelfHealingOptions{}.detector;

  // Partition detected as *partitioned* (never dead) within the detection
  // budget of the break at round 3.
  ASSERT_GE(run.first_partition_round, 0) << "partition never believed";
  EXPECT_LE(run.first_partition_round, 3 + detector.suspicion_threshold + 2);
  EXPECT_FALSE(run.island_ever_believed_dead)
      << "a live 3-node island must be believed partitioned, not dead";
  EXPECT_GE(run.partition_events, 3);  // Nodes 4, 5, 6.

  // Merge believed within the probation + detection budget of the heal at
  // round 10, with every island node forced a full-image reconciliation.
  ASSERT_GE(run.first_merged_round, 0) << "island never merged back";
  EXPECT_LE(run.first_merged_round, 10 + detector.probation_rounds +
                                        detector.suspicion_threshold + 2);
  EXPECT_GE(run.merge_events, 3);
  EXPECT_GE(run.merge_reconciliations, 3)
      << "island nodes must get full framed images on merge";

  EXPECT_TRUE(run.overlay_errors.empty())
      << run.overlay_errors.front() << " (" << run.overlay_errors.size()
      << " total)";

  // Full convergence after the merge: nothing pending, both destinations
  // complete, and the final plan equals a from-scratch plan over the full
  // topology and workload.
  EXPECT_EQ(run.final_pending_installs, 0);
  EXPECT_TRUE(run.final_incomplete.empty());
  EXPECT_TRUE(run.final_values.contains(2));
  EXPECT_TRUE(run.final_values.contains(5));

  Topology topology = MakeGrid(7, 1, 40.0, 50.0);
  Workload workload;
  workload.tasks = {Task{2, {1, 5}}, Task{5, {1, 2}}};
  FunctionSpec near_spec;
  near_spec.kind = AggregateKind::kWeightedSum;
  near_spec.weights = {{1, 1.0}, {5, 2.0}};
  FunctionSpec far_spec;
  far_spec.kind = AggregateKind::kWeightedSum;
  far_spec.weights = {{1, 1.0}, {2, 3.0}};
  workload.specs = {near_spec, far_spec};
  workload.RebuildFunctions();
  PathSystem paths(topology);
  GlobalPlan oracle = BuildPlan(
      std::make_shared<MulticastForest>(paths, workload.tasks),
      workload.functions);
  std::vector<std::string> divergence =
      FindPlanDivergence(*run.final_plan, oracle);
  EXPECT_TRUE(divergence.empty()) << divergence.front();
  EXPECT_TRUE(ValidatePlanConsistency(*run.final_plan));

  // Determinism: the scripted scenario replays byte-identically.
  SplitMergeRun replay = RunSplitMerge(/*readings_seed=*/777);
  EXPECT_EQ(run.trace, replay.trace);
  EXPECT_EQ(run.first_partition_round, replay.first_partition_round);
  EXPECT_EQ(run.first_merged_round, replay.first_merged_round);
}

// --- Epoch divergence: both sides replanned while split -------------------

TEST(PartitionToleranceTest, ForeignEpochDivergenceConvergesToOnePlan) {
  // Line of 5, perfect links. Node 4 plays the healed far side of a split
  // whose island base bumped epochs up to 5 on its own: we install that
  // foreign-lineage image directly, then drive the base station's
  // reconciliation — it must detect the divergence (its install bounces
  // off the higher epoch), open an epoch above BOTH lineages, and force a
  // full image that converges node 4 onto one plan.
  Topology topology = MakeGrid(5, 1, 40.0, 50.0);
  Workload workload;
  workload.tasks = {Task{4, {1, 2}}};
  FunctionSpec spec;
  spec.kind = AggregateKind::kWeightedSum;
  spec.weights = {{1, 1.0}, {2, 2.0}};
  workload.specs = {spec};
  workload.RebuildFunctions();

  SelfHealingOptions options;
  options.partition_aware = true;
  obs::MetricsRegistry metrics;
  SelfHealingRuntime runtime(topology, workload, /*base=*/0, options);
  runtime.set_metrics(&metrics);

  LossyLinkModel physical;
  physical.attempt_delivers = [](NodeId, NodeId, int) { return true; };

  ReadingGenerator readings(topology.node_count(), 5);
  ReconciliationReference reconciliations(runtime, metrics, /*base=*/0);
  auto run_round = [&](int round) {
    SelfHealingRoundResult result =
        runtime.RunRound(round, readings.values(), physical);
    reconciliations.CheckRound(round, result.replanned);
    return result;
  };
  run_round(0);
  ASSERT_EQ(runtime.network().plan_epoch(4), 0u);

  // The far side's independent progress: same plan content, epoch 5.
  PathSystem paths(topology);
  GlobalPlan island_plan = BuildPlan(
      std::make_shared<MulticastForest>(paths, workload.tasks),
      workload.functions);
  CompiledPlan island_compiled = CompiledPlan::Compile(
      island_plan, workload.functions, MergePolicy::kGreedyMergePerEdge,
      /*plan_epoch=*/5);
  std::vector<std::vector<uint8_t>> island_images =
      EncodeAllNodeStates(island_compiled, workload.functions);
  ASSERT_TRUE(runtime.mutable_network().InstallNodeImage(4, island_images[4],
                                                         island_compiled));
  ASSERT_EQ(runtime.network().plan_epoch(4), 5u);

  // Trigger a replan: the base (still on lineage 0) opens epoch 1 and
  // disseminates — its install at node 4 must BOUNCE (higher epoch wins),
  // recording the divergence instead of silently acking stale state.
  runtime.SubmitWorkload(workload);
  run_round(1);
  EXPECT_EQ(runtime.foreign_epoch_max(), 5u);
  EXPECT_GE(metrics.Total("partition.epoch_divergences"), 1);
  EXPECT_EQ(runtime.network().plan_epoch(4), 5u) << "stale install won";

  // The reconciliation replan opens max(1, 5) + 1 = 6 and forces a full
  // image: node 4 joins the surviving lineage.
  run_round(2);
  EXPECT_EQ(runtime.base_epoch(), 6u);
  EXPECT_EQ(runtime.network().plan_epoch(4), 6u);

  // Fully converged: every node on epoch 6, nothing pending, and the
  // destination completes under the reconciled plan.
  SelfHealingRoundResult settled = run_round(3);
  EXPECT_EQ(settled.pending_installs, 0);
  // Every node with a plan role sits on the reconciled epoch. (Nodes with
  // an empty image — here the base, which only runs control — are never
  // shipped one and legitimately stay at 0.)
  for (NodeId n = 0; n < topology.node_count(); ++n) {
    const uint32_t node_epoch = runtime.network().plan_epoch(n);
    EXPECT_TRUE(node_epoch == 6u || node_epoch == 0u) << "node " << n;
  }
  EXPECT_EQ(runtime.network().plan_epoch(4), 6u);
  EXPECT_TRUE(settled.data.destination_values.contains(4));
  EXPECT_TRUE(settled.data.incomplete_destinations.empty());
}

// --- Combined mobility x fault x channel x churn differential -------------

double SubsetOracle(const AggregateFunction& fn,
                    const std::vector<NodeId>& sources,
                    const std::vector<double>& readings) {
  std::optional<PartialRecord> merged;
  for (NodeId s : sources) {
    PartialRecord partial = fn.PreAggregate(s, readings[s]);
    merged = merged ? fn.Merge(*merged, partial) : partial;
  }
  return fn.Evaluate(*merged);
}

struct MobilityChaosRun {
  std::string trace;
  std::vector<std::string> errors;
  int64_t new_suspicions = 0;
  int64_t replans = 0;
  int64_t partitioned_node_rounds = 0;
  int64_t link_breaks = 0;
  int64_t merge_reconciliations = 0;
  int64_t attempts = 0;
  int64_t control_hops = 0;
};

MobilityChaosRun RunMobilityChaos(uint64_t seed) {
  Topology topology = MakeGreatDuckIslandLike();
  WorkloadSpec spec;
  spec.destination_count = 4;
  spec.sources_per_destination = 4;
  spec.seed = seed * 17 + 3;
  Workload workload = GenerateWorkload(topology, spec);
  NodeId base = PickBaseStation(topology);

  std::vector<NodeId> protected_nodes = Destinations(workload);
  if (std::find(protected_nodes.begin(), protected_nodes.end(), base) ==
      protected_nodes.end()) {
    protected_nodes.push_back(base);
  }
  FaultScheduleOptions fault_options;
  fault_options.rounds = 14;
  fault_options.transient_link_fraction = 0.04;
  fault_options.transient_drop_probability = 0.4;
  fault_options.persistent_link_failures = 1;
  fault_options.node_deaths = 1;
  fault_options.node_recoveries = 1;
  fault_options.recovery_delay_rounds = 5;
  fault_options.seed = seed;
  FaultSchedule schedule =
      FaultSchedule::Generate(topology, protected_nodes, fault_options);

  ChannelOptions channel_options;
  channel_options.good_loss = 0.05;
  channel_options.bad_loss = 0.6;
  channel_options.p_enter_bad = 0.05;
  channel_options.p_exit_bad = 0.3;
  channel_options.seed = seed * 1000 + 7;
  ChannelModel channel(channel_options);

  const int kRounds = 18;
  MobilityOptions mobility_options;
  mobility_options.model = MobilityModel::kVelocityDrift;
  mobility_options.rounds = kRounds;
  mobility_options.speed_m_per_round = 6.0;
  mobility_options.anchored = protected_nodes;
  mobility_options.seed = seed;
  MobilityTrace mobility = MobilityTrace::Generate(topology, mobility_options);

  SelfHealingOptions options;
  options.partition_aware = true;
  options.retry.max_attempts = 8;
  obs::MetricsRegistry metrics;
  MobilityMetricHandles mobility_handles = RegisterMobilityMetrics(metrics);
  SelfHealingRuntime runtime(topology, workload, base, options);
  runtime.set_metrics(&metrics);
  ReconciliationReference reconciliations(runtime, metrics, base);

  // The functions of every destination ever configured (churn only ever
  // removes a task here), for the delivered-set oracle.
  const FunctionSet& functions = workload.functions;
  // Workload churn at round 7: the last task is retired mid-flight, so
  // mobility, faults, and lifecycle churn all flow through the same
  // replan / epoch machinery.
  Workload churned = workload;
  churned.tasks.pop_back();
  churned.specs.pop_back();
  churned.RebuildFunctions();

  MobilityChaosRun run;
  EventTrace trace;
  trace.Append(schedule.Describe());
  trace.Append(mobility.Describe());
  auto record_error = [&run](int round, const std::string& what) {
    std::ostringstream os;
    os << "r" << round << ": " << what;
    run.errors.push_back(os.str());
  };

  const Workload* configured = &workload;
  for (int round = 0; round < kRounds; ++round) {
    if (round == 7) {
      runtime.SubmitWorkload(churned);
      configured = &churned;
    }
    ReadingGenerator readings(topology.node_count(),
                              seed + 500 + static_cast<uint64_t>(round));
    // Physical oracle: channel loss AND scheduled faults AND movement.
    LossyLinkModel base_model = channel.Bind(round);
    auto channel_delivers = base_model.attempt_delivers;
    base_model.attempt_delivers = [&schedule, channel_delivers, round](
                                      NodeId from, NodeId to, int attempt) {
      return schedule.AttemptDelivers(round, from, to, attempt) &&
             channel_delivers(from, to, attempt);
    };
    base_model.node_alive = [&schedule, round](NodeId n) {
      return schedule.NodeAliveAt(round, n);
    };
    LossyLinkModel physical = WithMobility(base_model, mobility, round);

    SelfHealingRoundResult result =
        runtime.RunRound(round, readings.values(), physical, &trace);
    reconciliations.CheckRound(round, result.replanned);
    RecordMobilityRound(mobility, round, metrics, mobility_handles);
    run.new_suspicions += result.new_suspicions;
    run.attempts += result.data.attempts;
    run.control_hops += result.control_hops_crossed;
    run.partitioned_node_rounds +=
        static_cast<int64_t>(result.believed_partitioned.size());

    // Partition-status overlay invariants against the configured workload.
    const std::vector<NodeId>& parted = result.believed_partitioned;
    for (const Task& task : configured->tasks) {
      auto status_it = result.partition_status.find(task.destination);
      if (status_it == result.partition_status.end()) {
        record_error(round, "destination missing partition status");
        continue;
      }
      const DestinationPartitionStatus& status = status_it->second;
      if (status.expected_original != static_cast<int>(task.sources.size())) {
        record_error(round, "expected_original disagrees with the task");
      }
      if (status.original_coverage < 0.0 || status.original_coverage > 1.0) {
        record_error(round, "original_coverage outside [0, 1]");
      }
      const bool any_cut = !status.dead_sources.empty() ||
                           !status.partitioned_sources.empty() ||
                           !status.destination_reachable;
      if (status.degraded != any_cut) {
        record_error(round, "degraded verdict inconsistent");
      }
      if (status.degraded_by_partition && !status.degraded) {
        record_error(round, "degraded_by_partition without degraded");
      }
      for (NodeId s : status.partitioned_sources) {
        if (std::find(parted.begin(), parted.end(), s) == parted.end()) {
          record_error(round, "partitioned source not believed partitioned");
        }
      }
      // The tentpole contract: a believed-partitioned source can never
      // hide behind a full-coverage claim for the original query.
      if (!status.partitioned_sources.empty() &&
          status.original_coverage >= 1.0) {
        record_error(round, "stale full coverage over a partitioned source");
      }
    }

    // Delivered-set oracle: every coverage verdict with an exact set must
    // reproduce the reported value from exactly those contributors.
    for (const auto& [destination, cov] : result.data.destination_coverage) {
      if (!cov.exact_known || cov.covered == 0) continue;
      if (static_cast<int>(cov.sources.size()) != cov.covered) {
        record_error(round, "coverage set size disagrees with covered");
        continue;
      }
      const bool completed =
          result.data.destination_values.contains(destination);
      double reported =
          completed ? result.data.destination_values.at(destination)
          : result.data.degraded_values.contains(destination)
              ? result.data.degraded_values.at(destination)
              : 0.0;
      if (!completed && !result.data.degraded_values.contains(destination)) {
        record_error(round, "contributors reported but no value");
        continue;
      }
      double oracle = SubsetOracle(functions.Get(destination), cov.sources,
                                   readings.values());
      if (!ValuesClose(reported, oracle)) {
        std::ostringstream os;
        os << "delivered-set oracle mismatch at d" << destination << ": got "
           << reported << " want " << oracle;
        record_error(round, os.str());
      }
    }
  }

  run.replans = metrics.Total("heal.replans");
  run.merge_reconciliations =
      metrics.Total("partition.merge_reconciliations");
  run.link_breaks = metrics.Total("mobility.link_breaks");
  run.trace = trace.ToString();
  return run;
}

// 20 seeds of the full stack — movement-driven correlated link churn over
// an adversarial bursty channel, scheduled faults with a death + recovery,
// and a mid-flight workload retirement — all over the partition-aware
// self-healing runtime. Every coverage verdict reconciles against the
// delivered-set oracle, the overlay never lets a partition hide behind a
// complete claim, and the whole run replays byte-identically.
class MobilityChaosDifferential : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(MobilityChaosDifferential, CoverageAndOverlayReconcile) {
  const uint64_t seed = GetParam();
  MobilityChaosRun run = RunMobilityChaos(seed);

  EXPECT_TRUE(run.errors.empty())
      << "seed " << seed << ": " << run.errors.front() << " ("
      << run.errors.size() << " total)";
  EXPECT_GT(run.attempts, 0);
  EXPECT_GT(run.link_breaks, 0)
      << "seed " << seed << ": drift produced no churn";
  EXPECT_GT(run.new_suspicions, 0) << "seed " << seed;
  EXPECT_GT(run.replans, 0) << "seed " << seed;

  MobilityChaosRun replay = RunMobilityChaos(seed);
  EXPECT_EQ(run.trace, replay.trace) << "seed " << seed;
  EXPECT_EQ(run.new_suspicions, replay.new_suspicions);
  EXPECT_EQ(run.replans, replay.replans);
  EXPECT_EQ(run.partitioned_node_rounds, replay.partitioned_node_rounds);
  EXPECT_EQ(run.attempts, replay.attempts);
  EXPECT_EQ(run.control_hops, replay.control_hops);
  EXPECT_EQ(run.merge_reconciliations, replay.merge_reconciliations);
}

INSTANTIATE_TEST_SUITE_P(TwentySeeds, MobilityChaosDifferential,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace m2m
