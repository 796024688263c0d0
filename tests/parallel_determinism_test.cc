// Concurrency differential suite: the thread-pool execution core must be
// unobservable in every output. Each scenario runs once serially (1 thread)
// and once per parallel configuration ({2, 8} threads, adversarial shard
// geometries), over 20 seeds, and asserts byte-identical artifacts:
// compiled-plan wire images, analytic round results (hexfloat — bit-exact
// doubles), lossy/channel round traces, `m2m.metrics.v1` JSON snapshots,
// self-healing fault-schedule traces, and lifecycle churn images. A single
// differing byte anywhere fails: parallelism is a scheduling choice, never
// a semantic one (docs/THEORY.md section 12).

#include <gtest/gtest.h>

#include <cstdint>
#include <iomanip>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "fault_test_util.h"
#include "lifecycle/churn_schedule.h"
#include "lifecycle/lifecycle.h"
#include "obs/metrics.h"
#include "plan/node_tables.h"
#include "plan/planner.h"
#include "plan/serialization.h"
#include "routing/multicast.h"
#include "routing/path_system.h"
#include "runtime/channel.h"
#include "runtime/network.h"
#include "sim/executor.h"
#include "sim/fault_schedule.h"
#include "sim/readings.h"
#include "topology/generator.h"
#include "topology/topology.h"
#include "workload/workload.h"

namespace m2m {
namespace {

using fault_test::Destinations;

constexpr int kSeeds = 20;
constexpr int kThreadCounts[] = {2, 8};

Topology TestTopology(uint64_t seed) {
  return MakeUniformRandom(56, Area{110.0, 190.0}, kDefaultRadioRangeM,
                           0xA5EED + seed);
}

Workload TestWorkload(const Topology& topology, uint64_t seed) {
  WorkloadSpec spec;
  spec.destination_count = 4;
  spec.sources_per_destination = 5;
  spec.max_hops = 4;
  spec.seed = seed;
  return GenerateWorkload(topology, spec);
}

void AppendHex(std::ostringstream& out, double v) {
  out << std::hexfloat << v << std::defaultfloat << ";";
}

std::string ImageBytes(const std::vector<std::vector<uint8_t>>& images) {
  std::string bytes;
  for (const std::vector<uint8_t>& image : images) {
    bytes.append(image.begin(), image.end());
    bytes.push_back('|');
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// Scenario fingerprints. Each returns a byte string that must be invariant
// under the active parallelism configuration.

// Planner: fresh solve, then an incremental replan after a workload edit
// (parallel per-edge solves + parallel signature probes), both serialized
// to wire images.
std::string PlanFingerprint(uint64_t seed) {
  Topology topology = TestTopology(seed);
  Workload workload = TestWorkload(topology, seed);
  PathSystem paths(topology);
  GlobalPlan plan = BuildPlan(
      std::make_shared<MulticastForest>(paths, workload.tasks),
      workload.functions);
  CompiledPlan compiled = CompiledPlan::Compile(plan, workload.functions);
  std::ostringstream out;
  out << ImageBytes(EncodeAllNodeStates(compiled, workload.functions));

  // Drop one source from the first task and replan incrementally.
  const Task& first = workload.tasks.front();
  Workload edited =
      WithSourceRemoved(workload, first.sources.front(), first.destination);
  UpdateStats stats;
  GlobalPlan patched = ReplanForWorkload(plan, paths, edited.tasks,
                                         edited.functions, &stats);
  CompiledPlan repatched =
      CompiledPlan::Compile(patched, edited.functions,
                            MergePolicy::kGreedyMergePerEdge, 1);
  out << "reused=" << stats.edges_reused
      << " reopt=" << stats.edges_reoptimized << "|"
      << ImageBytes(EncodeAllNodeStates(repatched, edited.functions));
  return out.str();
}

// Analytic executor: per-task sharded full rounds, unicast and broadcast.
std::string AnalyticFingerprint(uint64_t seed) {
  Topology topology = TestTopology(seed);
  Workload workload = TestWorkload(topology, seed);
  PathSystem paths(topology);
  GlobalPlan plan = BuildPlan(
      std::make_shared<MulticastForest>(paths, workload.tasks),
      workload.functions);
  auto compiled = std::make_shared<CompiledPlan>(
      CompiledPlan::Compile(plan, workload.functions));
  PlanExecutor executor(compiled, workload.functions, EnergyModel{});

  std::ostringstream out;
  for (int round = 0; round < 4; ++round) {
    ReadingGenerator readings(topology.node_count(),
                              seed * 100 + static_cast<uint64_t>(round));
    TransmissionOptions options;
    options.use_broadcast = (round % 2 == 1);
    RoundResult result = executor.RunRound(readings.values(), options);
    out << "r" << round << " msgs=" << result.messages
        << " phys=" << result.physical_transmissions
        << " units=" << result.units << " bytes=" << result.payload_bytes
        << " e=";
    AppendHex(out, result.energy_mj);
    for (double e : result.node_energy_mj) AppendHex(out, e);
    std::map<NodeId, double> ordered(result.destination_values.begin(),
                                     result.destination_values.end());
    for (const auto& [d, v] : ordered) {
      out << " d" << d << "=";
      AppendHex(out, v);
    }
    out << "\n";
  }
  return out.str();
}

// Byte-accurate runtime: plain rounds and adversarial-channel lossy rounds,
// with the typed round trace and the metrics registry snapshot folded in.
std::string RuntimeFingerprint(uint64_t seed) {
  Topology topology = TestTopology(seed);
  Workload workload = TestWorkload(topology, seed);
  PathSystem paths(topology);
  GlobalPlan plan = BuildPlan(
      std::make_shared<MulticastForest>(paths, workload.tasks),
      workload.functions);
  CompiledPlan compiled = CompiledPlan::Compile(plan, workload.functions);
  RuntimeNetwork network(compiled, workload.functions);
  obs::MetricsRegistry metrics;
  network.set_metrics(&metrics);

  std::ostringstream out;
  for (int round = 0; round < 2; ++round) {
    ReadingGenerator readings(topology.node_count(),
                              seed * 200 + static_cast<uint64_t>(round));
    RuntimeNetwork::LossyResult result = network.RunRound(readings.values());
    out << "plain r" << round << " packets=" << result.deliveries
        << " bytes=" << result.payload_bytes << " e=";
    AppendHex(out, result.energy_mj);
    std::map<NodeId, double> ordered(result.destination_values.begin(),
                                     result.destination_values.end());
    for (const auto& [d, v] : ordered) {
      out << " d" << d << "=";
      AppendHex(out, v);
    }
    out << "\n";
  }

  // Adversarial channel: bursts, reordering, duplication and corruption in
  // one regime, so every deferred-effect kind replays.
  ChannelOptions channel_options;
  channel_options.good_loss = 0.08;
  channel_options.bad_loss = 0.8;
  channel_options.p_enter_bad = 0.08;
  channel_options.p_exit_bad = 0.3;
  channel_options.delay_probability = 0.3;
  channel_options.max_delay_ticks = 3;
  channel_options.duplicate_probability = 0.15;
  channel_options.corrupt_probability = 0.1;
  channel_options.seed = seed * 31 + 7;
  ChannelModel channel(channel_options);
  RetryPolicy retry;
  retry.max_attempts = 10;
  EventTrace trace;
  for (int round = 0; round < 3; ++round) {
    ReadingGenerator readings(topology.node_count(),
                              seed * 300 + static_cast<uint64_t>(round));
    RuntimeNetwork::LossyResult lossy = network.RunRoundLossy(
        readings.values(), channel.Bind(round), retry, {}, &trace);
    out << "lossy r" << round << " attempts=" << lossy.attempts
        << " deliv=" << lossy.deliveries << " dup=" << lossy.duplicates
        << " retx=" << lossy.retransmissions
        << " corrupt=" << lossy.corrupt_frames
        << " spont=" << lossy.spontaneous_duplicates
        << " reord=" << lossy.reordered_deliveries
        << " bytes=" << lossy.payload_bytes << " ticks=" << lossy.final_tick
        << " e=";
    AppendHex(out, lossy.energy_mj);
    std::map<NodeId, double> ordered(lossy.destination_values.begin(),
                                     lossy.destination_values.end());
    for (const auto& [d, v] : ordered) {
      out << " d" << d << "=";
      AppendHex(out, v);
    }
    out << "\n";
  }
  out << trace.ToString() << metrics.ToJson();
  return out.str();
}

// Self-healing: in-band failure detection, control plane, incremental
// replans — the full fault-schedule differential harness's byte trace.
std::string SelfHealingFingerprint(uint64_t seed) {
  Topology topology = TestTopology(seed);
  Workload workload = TestWorkload(topology, seed);
  FaultScheduleOptions options;
  options.rounds = 5;
  options.persistent_link_failures = 2;
  options.node_deaths = 1;
  options.seed = seed * 17 + 3;
  FaultSchedule schedule =
      FaultSchedule::Generate(topology, Destinations(workload), options);
  fault_test::FaultRunResult run =
      fault_test::RunFaultSchedule(topology, workload, schedule, seed * 7);
  EXPECT_TRUE(run.value_mismatches.empty());
  EXPECT_TRUE(run.replan_divergences.empty());
  std::ostringstream out;
  out << run.trace;
  std::map<NodeId, double> ordered(run.final_values.begin(),
                                   run.final_values.end());
  for (const auto& [d, v] : ordered) {
    out << " d" << d << "=";
    AppendHex(out, v);
  }
  return out.str();
}

// Lifecycle churn: scheduled admissions/retirements/source edits through
// the manager's incremental replans, fingerprinting the shipped images and
// the qlm.* metrics.
std::string ChurnFingerprint(uint64_t seed) {
  Topology topology = TestTopology(seed);
  Workload initial = TestWorkload(topology, seed);
  const NodeId base = 0;
  ChurnScheduleOptions options;
  options.seed = seed * 13 + 5;
  std::vector<NodeId> forbidden = Destinations(initial);
  forbidden.push_back(base);
  ChurnSchedule schedule =
      ChurnSchedule::Generate(topology, initial, forbidden, options);

  QueryLifecycleManager manager(topology, initial, base);
  obs::MetricsRegistry metrics;
  manager.set_metrics(&metrics);
  std::ostringstream out;
  for (int round = 0; round < options.rounds; ++round) {
    for (const ChurnEvent& event : schedule.EventsAt(round)) {
      MutationResult result = ApplyChurnEvent(manager, event);
      out << "r" << round << " " << ToString(event.request.type)
          << " v=" << result.catalog_version
          << " reused=" << result.replan.edges_reused
          << " reopt=" << result.replan.edges_reoptimized
          << " images=" << result.images_shipped
          << " bumps=" << result.bumps_shipped << "\n";
    }
  }
  out << ImageBytes(manager.images()) << metrics.ToJson();
  return out.str();
}

// ---------------------------------------------------------------------------
// Differential drivers.

using FingerprintFn = std::string (*)(uint64_t);

void ExpectThreadInvariant(FingerprintFn fingerprint, const char* name) {
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    std::string serial;
    {
      ScopedParallelism parallelism(1);
      serial = fingerprint(seed);
    }
    for (int threads : kThreadCounts) {
      ScopedParallelism parallelism(threads);
      std::string parallel = fingerprint(seed);
      ASSERT_EQ(serial, parallel)
          << name << " diverged at seed " << seed << " with " << threads
          << " threads";
    }
  }
}

TEST(ParallelDeterminismTest, PlannerIsByteIdenticalAcrossThreads) {
  ExpectThreadInvariant(&PlanFingerprint, "planner");
}

TEST(ParallelDeterminismTest, AnalyticExecutorIsByteIdenticalAcrossThreads) {
  ExpectThreadInvariant(&AnalyticFingerprint, "analytic executor");
}

TEST(ParallelDeterminismTest, RuntimeRoundsAreByteIdenticalAcrossThreads) {
  ExpectThreadInvariant(&RuntimeFingerprint, "runtime rounds");
}

TEST(ParallelDeterminismTest, SelfHealingIsByteIdenticalAcrossThreads) {
  ExpectThreadInvariant(&SelfHealingFingerprint, "self-healing");
}

TEST(ParallelDeterminismTest, LifecycleChurnIsByteIdenticalAcrossThreads) {
  ExpectThreadInvariant(&ChurnFingerprint, "lifecycle churn");
}

// Forest construction: the destination columns are built through
// ParallelFor before the serial path walk, so the forest — and how many
// columns it built — must not depend on the thread count.
std::string ForestFingerprint(uint64_t seed) {
  Topology topology = TestTopology(seed);
  Workload workload = TestWorkload(topology, seed);
  PathSystem paths(topology);
  MulticastForest forest(paths, workload.tasks);
  std::ostringstream out;
  out << "columns=" << paths.materialized_column_count() << "\n";
  for (const ForestEdge& edge : forest.edges()) {
    out << edge.edge.tail << ">" << edge.edge.head << " seg";
    for (NodeId n : edge.segment) out << " " << n;
    out << " pairs";
    for (const SourceDestPair& pair : edge.pairs) {
      out << " " << pair.source << ":" << pair.destination;
    }
    out << "\n";
  }
  return out.str();
}

TEST(ParallelDeterminismTest, MulticastForestIsIdenticalAcrossThreads) {
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    std::string serial;
    {
      ScopedParallelism parallelism(1);
      serial = ForestFingerprint(seed);
    }
    ScopedParallelism parallelism(4);
    ASSERT_EQ(serial, ForestFingerprint(seed)) << "seed " << seed;
  }
}

// Shard-merge order independence: with the thread count fixed, the shard
// geometry partitions work differently (1 giant shard, prime counts that
// straddle region boundaries, one shard per item) yet every merge happens
// in deterministic id order, so results must not move.
TEST(ParallelDeterminismTest, ShardGeometryIsResultInvariant) {
  const int kShardCounts[] = {1, 2, 3, 7, 13, 56};
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    std::string serial;
    {
      ScopedParallelism parallelism(1);
      serial = AnalyticFingerprint(seed) + RuntimeFingerprint(seed);
    }
    for (int shards : kShardCounts) {
      ScopedParallelism parallelism(2, shards);
      std::string sharded = AnalyticFingerprint(seed) +
                            RuntimeFingerprint(seed);
      ASSERT_EQ(serial, sharded)
          << "shard geometry " << shards << " diverged at seed " << seed;
    }
  }
}

// The knob itself: shards follow threads by default, 0 resets, and the
// scoped override restores the previous configuration.
TEST(ParallelDeterminismTest, ParallelismKnobRoundTrips) {
  EXPECT_EQ(1, GlobalThreadCount());
  {
    ScopedParallelism parallelism(4, 13);
    EXPECT_EQ(4, GlobalThreadCount());
    EXPECT_EQ(13, GlobalShardCount());
    EXPECT_NE(nullptr, GlobalThreadPool());
    {
      ScopedParallelism inner(2);
      EXPECT_EQ(2, GlobalThreadCount());
      EXPECT_EQ(2, GlobalShardCount());  // shards follow threads
    }
    EXPECT_EQ(4, GlobalThreadCount());
    EXPECT_EQ(13, GlobalShardCount());
  }
  EXPECT_EQ(1, GlobalThreadCount());
  EXPECT_EQ(nullptr, GlobalThreadPool());  // serial mode has no pool
}

}  // namespace
}  // namespace m2m
