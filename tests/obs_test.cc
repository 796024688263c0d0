#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/planner.h"
#include "routing/multicast.h"
#include "routing/path_system.h"
#include "runtime/network.h"
#include "sim/executor.h"
#include "sim/readings.h"
#include "sim/self_healing.h"
#include "topology/generator.h"
#include "topology/topology.h"
#include "workload/workload.h"

namespace m2m {
namespace {

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, CountersAccumulateAcrossLabelDimensions) {
  obs::MetricsRegistry registry;
  obs::MetricHandle c = registry.Counter("test.packets");
  registry.Add(c, 3);
  registry.AddNode(c, 2, 4);
  registry.AddNode(c, 7, 1);
  registry.AddEdge(c, 2, 7, 5);

  // Labeled adds feed the total: 3 + 4 + 1 + 5.
  EXPECT_EQ(registry.Total("test.packets"), 13);
  EXPECT_EQ(registry.NodeValue("test.packets", 2), 4);
  EXPECT_EQ(registry.NodeValue("test.packets", 7), 1);
  EXPECT_EQ(registry.NodeValue("test.packets", 3), 0);
  EXPECT_EQ(registry.NodeSum("test.packets"), 5);
  EXPECT_EQ(registry.EdgeValue("test.packets", 2, 7), 5);
  EXPECT_EQ(registry.EdgeValue("test.packets", 7, 2), 0);
  EXPECT_EQ(registry.EdgeSum("test.packets"), 5);
}

TEST(MetricsRegistryTest, ReRegisteringReturnsTheSameHandle) {
  obs::MetricsRegistry registry;
  obs::MetricHandle a = registry.Counter("test.c");
  obs::MetricHandle b = registry.Counter("test.c");
  EXPECT_EQ(a.index, b.index);
  registry.Add(a, 1);
  registry.Add(b, 1);
  EXPECT_EQ(registry.Total("test.c"), 2);
}

TEST(MetricsRegistryTest, GaugesAreLastWriteWins) {
  obs::MetricsRegistry registry;
  obs::MetricHandle g = registry.Gauge("test.epoch");
  registry.Set(g, 3);
  registry.Set(g, 7);
  EXPECT_EQ(registry.Total("test.epoch"), 7);
  registry.SetNode(g, 4, 11);
  registry.SetNode(g, 4, 2);
  EXPECT_EQ(registry.NodeValue("test.epoch", 4), 2);
}

TEST(MetricsRegistryTest, HistogramBucketsCountAndSum) {
  obs::MetricsRegistry registry;
  obs::MetricHandle h = registry.Histogram("test.latency", {1, 4, 16});
  registry.Observe(h, 0);
  registry.Observe(h, 1);
  registry.Observe(h, 3);
  registry.Observe(h, 100);  // Overflow bucket.
  EXPECT_EQ(registry.HistogramCount("test.latency"), 4);
  EXPECT_EQ(registry.HistogramSum("test.latency"), 104);
}

TEST(MetricsRegistryTest, ResetKeepsRegistrationsAndZeroesValues) {
  obs::MetricsRegistry registry;
  obs::MetricHandle c = registry.Counter("test.c");
  obs::MetricHandle h = registry.Histogram("test.h");
  registry.AddNode(c, 1, 5);
  registry.Observe(h, 9);
  registry.Reset();
  EXPECT_TRUE(registry.Has("test.c"));
  EXPECT_EQ(registry.Total("test.c"), 0);
  EXPECT_EQ(registry.NodeSum("test.c"), 0);
  EXPECT_EQ(registry.HistogramCount("test.h"), 0);
  // Handles registered before the reset stay valid.
  registry.Add(c, 2);
  EXPECT_EQ(registry.Total("test.c"), 2);
}

TEST(MetricsRegistryTest, NamesPreserveRegistrationOrder) {
  obs::MetricsRegistry registry;
  registry.Counter("z.last");
  registry.Gauge("a.first");
  registry.Histogram("m.middle");
  EXPECT_EQ(registry.Names(),
            (std::vector<std::string>{"z.last", "a.first", "m.middle"}));
}

TEST(MetricsRegistryTest, ToJsonIsDeterministicAndCarriesTheSchema) {
  auto build = [] {
    obs::MetricsRegistry registry;
    obs::MetricHandle c = registry.Counter("test.tx");
    obs::MetricHandle g = registry.Gauge("test.epoch");
    obs::MetricHandle h = registry.Histogram("test.ticks", {2, 8});
    // Insert labels in a scrambled order; the export must sort them.
    registry.AddEdge(c, 9, 1, 2);
    registry.AddEdge(c, 1, 9, 3);
    registry.AddNode(c, 5, 7);
    registry.AddNode(c, 2, 1);
    registry.Set(g, 4);
    registry.Observe(h, 3);
    return registry.ToJson();
  };
  const std::string json = build();
  EXPECT_EQ(json, build());  // Deterministic across identical runs.
  EXPECT_NE(json.find("\"schema\": \"m2m.metrics.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"test.tx\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"histogram\""), std::string::npos);
  // by_node ascending, zeros skipped.
  EXPECT_NE(json.find("{\"node\": 2, \"value\": 1}, "
                      "{\"node\": 5, \"value\": 7}"),
            std::string::npos);
  // by_edge sorted by (from, to).
  EXPECT_NE(json.find("{\"from\": 1, \"to\": 9, \"value\": 3}, "
                      "{\"from\": 9, \"to\": 1, \"value\": 2}"),
            std::string::npos);
  // Histogram renders its bounds plus the +inf overflow bucket.
  EXPECT_NE(json.find("{\"le\": \"inf\", \"count\": 0}"), std::string::npos);
}

// ---------------------------------------------------------------------------
// RoundTrace
// ---------------------------------------------------------------------------

TEST(RoundTraceTest, TypedRecordsRenderTheLegacyLines) {
  obs::RoundTrace trace;
  trace.Send(5, 1, 2, 3, 2, 17, obs::SendOutcome::kRx, false);
  trace.Send(6, 1, 2, 3, 3, 17, obs::SendOutcome::kDuplicate, true);
  trace.Send(7, 1, 2, 3, 4, 17, obs::SendOutcome::kEpochRejected, false);
  trace.Send(8, 0, 4, 0, 1, 9, obs::SendOutcome::kDropped, false, 2);
  trace.Send(9, 0, 4, 0, 2, 9, obs::SendOutcome::kDeadRecipient, false);
  trace.GiveUp(9, 0, 4, 0);
  trace.Suspect(12, 3, 4);
  trace.Control(13, obs::ControlKind::kReport, 3, 0, 7);
  trace.Control(13, obs::ControlKind::kReportAck, 0, 3, 7);
  trace.Control(14, obs::ControlKind::kImage, 0, 5, 42);
  trace.Control(14, obs::ControlKind::kBump, 0, 6, 5);
  trace.Control(15, obs::ControlKind::kInstallAck, 5, 0, 6);
  trace.Replan(13, 2, 1, 0, 3, 4, 20, 2);
  trace.Text("r13 begin");

  EXPECT_EQ(trace.ToString(),
            "t5 tx 1>2 m3 a2 b17 rx\n"
            "t6 tx 1>2 m3 a3 b17 dup+acklost\n"
            "t7 tx 1>2 m3 a4 b17 epoch\n"
            "t8 tx 0>4 m0 a1 b9 drop@2\n"
            "t9 tx 0>4 m0 a2 b9 dead\n"
            "t9 giveup 0>4 m0\n"
            "r12 suspect 3>4\n"
            "r13 ctrl report 3>0 b7 delivered\n"
            "r13 ctrl reportack 0>3 b7 delivered\n"
            "r14 ctrl image 0>5 b42 delivered\n"
            "r14 ctrl bump 0>6 b5 delivered\n"
            "r15 ctrl ack 5>0 b6 delivered\n"
            "r13 replan epoch=2 links=1 dead=0 images=3 bumps=4 "
            "reused=20 reopt=2\n"
            "r13 begin\n");
}

TEST(RoundTraceTest, CappedModeKeepsOnlyTheMostRecentRecords) {
  obs::RoundTrace trace;
  trace.set_capacity(3);
  for (int i = 0; i < 10; ++i) {
    trace.Send(i, 0, 1, 0, 1, 4, obs::SendOutcome::kRx, false);
  }
  EXPECT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.total_appended(), 10u);
  EXPECT_EQ(trace.dropped(), 7u);
  EXPECT_EQ(trace.ToString(),
            "t7 tx 0>1 m0 a1 b4 rx\n"
            "t8 tx 0>1 m0 a1 b4 rx\n"
            "t9 tx 0>1 m0 a1 b4 rx\n");
  // Typed records carry no heap strings, so retained memory is exactly the
  // ring payload — constant no matter how many more records stream through.
  const size_t bytes = trace.RetainedBytes();
  for (int i = 0; i < 1000; ++i) {
    trace.Send(i, 0, 1, 0, 1, 4, obs::SendOutcome::kRx, false);
  }
  EXPECT_EQ(trace.RetainedBytes(), bytes);
  // Shrinking the cap drops the oldest retained records.
  trace.set_capacity(1);
  EXPECT_EQ(trace.size(), 1u);
}

// ---------------------------------------------------------------------------
// RetryPolicy overflow fix
// ---------------------------------------------------------------------------

TEST(RetryPolicyTest, BackoffMatchesLegacyExponentialForSmallAttempts) {
  RetryPolicy retry;  // max_attempts=4, ack_timeout=2, factor=2.
  EXPECT_EQ(retry.BackoffWaitTicks(1), 2);
  EXPECT_EQ(retry.BackoffWaitTicks(2), 4);
  EXPECT_EQ(retry.BackoffWaitTicks(3), 8);
  // Horizon = 1 + the sum of all waits a message can still be in flight.
  EXPECT_EQ(retry.RetryHorizonTicks(), 1 + 2 + 4 + 8);
}

// Regression: with max_attempts=40 the legacy `int` backoff computation
// (timeout *= factor, 32-bit) overflowed around attempt 33, producing
// negative timeouts that scheduled retransmissions in the past.
TEST(RetryPolicyTest, LargeMaxAttemptsClampInsteadOfOverflowing) {
  RetryPolicy retry;
  retry.max_attempts = 40;
  int64_t previous = 0;
  int64_t wait_sum = 0;
  for (int attempt = 1; attempt < retry.max_attempts; ++attempt) {
    const int64_t wait = retry.BackoffWaitTicks(attempt);
    EXPECT_GT(wait, 0) << "attempt " << attempt;
    EXPECT_GE(wait, previous) << "attempt " << attempt;
    EXPECT_LE(wait, retry.max_backoff_ticks) << "attempt " << attempt;
    previous = wait;
    wait_sum += wait;
  }
  // ack=2, factor=2: wait(a) = 2^a until the clamp at 2^16 (attempt 16).
  EXPECT_EQ(retry.BackoffWaitTicks(16), retry.max_backoff_ticks);
  EXPECT_EQ(retry.BackoffWaitTicks(39), retry.max_backoff_ticks);
  EXPECT_EQ(retry.RetryHorizonTicks(), 1 + wait_sum);
  // The whole horizon stays comfortably inside the int tick domain.
  EXPECT_LT(retry.RetryHorizonTicks(), int64_t{1} << 30);
}

TEST(RetryPolicyTest, OverflowSafePolicyRunsARoundEndToEnd) {
  // The overflowing policy used to CHECK-fail (or hang) inside
  // RunRoundLossy once `tick + timeout` went negative. With the clamp the
  // round must complete, even on a lossy link that forces deep retries.
  Topology topology = MakeGrid(3, 1, 10.0, 15.0);
  Workload workload;
  workload.tasks = {Task{2, {0}}};
  FunctionSpec spec;
  spec.kind = AggregateKind::kWeightedSum;
  spec.weights = {{0, 1.0}};
  workload.specs = {spec};
  workload.RebuildFunctions();
  PathSystem paths(topology);
  GlobalPlan plan = BuildPlan(
      std::make_shared<MulticastForest>(paths, workload.tasks),
      workload.functions);
  CompiledPlan compiled = CompiledPlan::Compile(plan, workload.functions);
  RuntimeNetwork network(compiled, workload.functions);

  RetryPolicy retry;
  retry.max_attempts = 40;
  retry.max_backoff_ticks = 16;  // Keep the test's wall-clock tiny.
  LossyLinkModel links;
  links.attempt_delivers = [](NodeId, NodeId, int attempt) {
    return attempt >= 35;  // Only deep retransmissions get through.
  };
  ReadingGenerator readings(topology.node_count(), 3);
  RuntimeNetwork::LossyResult lossy =
      network.RunRoundLossy(readings.values(), links, retry);
  EXPECT_TRUE(lossy.incomplete_destinations.empty());
  EXPECT_EQ(lossy.destination_values.count(2), 1u);
  EXPECT_GE(lossy.retransmissions, 34);
  EXPECT_GT(lossy.final_tick, 0);
}

// ---------------------------------------------------------------------------
// Receiver dedup eviction boundary
// ---------------------------------------------------------------------------

// Pins the eviction boundary contract: a dedup entry stamped at tick t must
// survive through tick t + RetryHorizonTicks() - 1, the last tick at which
// a retransmission of that message can still arrive. The scenario arranges
// exactly that worst case: the receiver first sees the message on attempt
// 1, every ack back to the sender drops, every middle retransmission drops,
// and the final attempt lands at the last possible tick — while the
// eviction pass (which runs each processed tick past the horizon) is
// active. If the horizon were derived even two ticks short, the entry would
// be evicted before the final duplicate arrived, the packet would merge
// twice, and the destination's aggregate would double-count the source.
TEST(LossyRuntimeTest, DedupEntrySurvivesUntilTheLastPossibleRetransmission) {
  Topology topology = MakeGrid(3, 1, 10.0, 15.0);
  Workload workload;
  workload.tasks = {Task{2, {0, 1}}};
  FunctionSpec spec;
  spec.kind = AggregateKind::kWeightedSum;
  spec.weights = {{0, 1.0}, {1, 2.0}};
  workload.specs = {spec};
  workload.RebuildFunctions();
  PathSystem paths(topology);
  GlobalPlan plan = BuildPlan(
      std::make_shared<MulticastForest>(paths, workload.tasks),
      workload.functions);
  CompiledPlan compiled = CompiledPlan::Compile(plan, workload.functions);
  RuntimeNetwork network(compiled, workload.functions);

  const RetryPolicy retry;  // max_attempts=4, waits 2/4/8, horizon 15.
  ASSERT_EQ(retry.RetryHorizonTicks(), 15);

  // 0->1 delivers on attempt 2 (tick 2), so node 1 emits its partial at
  // tick 3. 1->2 delivers on attempts 1 and 4 only; acks 2->1 always drop.
  // Node 2 stamps the partial at tick 3; the final retransmission arrives
  // at tick 3 + 2 + 4 + 8 = 17 = stamp + horizon - 1, and tick 17 > 15 is
  // the first tick the eviction pass actually runs in this round.
  LossyLinkModel links;
  links.attempt_delivers = [](NodeId from, NodeId to, int attempt) {
    if (from == 0 && to == 1) return attempt >= 2;
    if (from == 1 && to == 0) return true;  // Ack for 0's message.
    if (from == 1 && to == 2) return attempt == 1 || attempt == 4;
    if (from == 2 && to == 1) return false;  // Acks to node 1 all drop.
    return true;
  };

  ReadingGenerator readings(topology.node_count(), 21);
  EventTrace trace;
  RuntimeNetwork::LossyResult lossy =
      network.RunRoundLossy(readings.values(), links, retry, {}, &trace);

  // The boundary duplicate was recognized as such, not re-merged.
  EXPECT_EQ(lossy.duplicates, 1);
  EXPECT_EQ(lossy.final_tick, 17);
  EXPECT_NE(trace.ToString().find("t17 tx 1>2 m0 a4 b"), std::string::npos);
  EXPECT_NE(trace.ToString().find("dup"), std::string::npos);
  // And the aggregate is the single-counted weighted sum.
  const double expected =
      1.0 * readings.values()[0] + 2.0 * readings.values()[1];
  ASSERT_EQ(lossy.destination_values.count(2), 1u);
  EXPECT_NEAR(lossy.destination_values.at(2), expected,
              1e-4 * std::max(1.0, std::fabs(expected)));
}

// ---------------------------------------------------------------------------
// Metrics reconciliation against runtime accounting
// ---------------------------------------------------------------------------

Workload SmallWorkload(const Topology& topology, uint64_t seed) {
  WorkloadSpec spec;
  spec.destination_count = 5;
  spec.sources_per_destination = 5;
  spec.kind = AggregateKind::kWeightedAverage;
  spec.seed = seed;
  return GenerateWorkload(topology, spec);
}

TEST(MetricsReconciliationTest, LosslessRoundMatchesResultAccounting) {
  Topology topology = MakeGreatDuckIslandLike();
  Workload workload = SmallWorkload(topology, 5);
  PathSystem paths(topology);
  GlobalPlan plan = BuildPlan(
      std::make_shared<MulticastForest>(paths, workload.tasks),
      workload.functions);
  CompiledPlan compiled = CompiledPlan::Compile(plan, workload.functions);
  RuntimeNetwork network(compiled, workload.functions);
  obs::MetricsRegistry registry;
  network.set_metrics(&registry);

  ReadingGenerator readings(topology.node_count(), 17);
  RuntimeNetwork::LossyResult result = network.RunRound(readings.values());
  ASSERT_GT(result.deliveries, 0);

  // On perfect links every attempt delivers exactly once, so the sent and
  // received counters both reconcile with the delivered payload.
  EXPECT_EQ(result.attempts, result.deliveries);
  EXPECT_EQ(result.retransmissions, 0);
  EXPECT_EQ(registry.Total("runtime.tx_attempts"), result.deliveries);
  EXPECT_EQ(registry.Total("runtime.tx_bytes"), result.payload_bytes);
  EXPECT_EQ(registry.Total("runtime.rx_packets"), result.deliveries);
  EXPECT_EQ(registry.Total("runtime.rx_bytes"), result.payload_bytes);
  EXPECT_EQ(registry.Total("runtime.acks_delivered"), result.deliveries);
  // Per-node labels partition the totals exactly.
  EXPECT_EQ(registry.NodeSum("runtime.tx_attempts"), result.deliveries);
  EXPECT_EQ(registry.NodeSum("runtime.tx_bytes"), result.payload_bytes);
  EXPECT_EQ(registry.NodeSum("runtime.rx_bytes"), result.payload_bytes);
}

TEST(MetricsReconciliationTest, LossyRoundMatchesLossyResultAccounting) {
  Topology topology = MakeGreatDuckIslandLike();
  Workload workload = SmallWorkload(topology, 6);
  PathSystem paths(topology);
  GlobalPlan plan = BuildPlan(
      std::make_shared<MulticastForest>(paths, workload.tasks),
      workload.functions);
  CompiledPlan compiled = CompiledPlan::Compile(plan, workload.functions);
  RuntimeNetwork network(compiled, workload.functions);
  obs::MetricsRegistry registry;
  network.set_metrics(&registry);

  // Deterministically lossy: a transmission drops whenever a cheap hash of
  // (from, to, attempt) says so, at roughly 25%.
  LossyLinkModel links;
  links.attempt_delivers = [](NodeId from, NodeId to, int attempt) {
    uint64_t h = static_cast<uint64_t>(from) * 1000003 +
                 static_cast<uint64_t>(to) * 10007 +
                 static_cast<uint64_t>(attempt) * 101;
    h ^= h >> 7;
    return (h % 4) != 0;
  };

  ReadingGenerator readings(topology.node_count(), 18);
  RuntimeNetwork::LossyResult lossy =
      network.RunRoundLossy(readings.values(), links);
  ASSERT_GT(lossy.retransmissions, 0);

  EXPECT_EQ(registry.Total("runtime.tx_attempts"), lossy.attempts);
  EXPECT_EQ(registry.Total("runtime.rx_packets"), lossy.deliveries);
  EXPECT_EQ(registry.Total("runtime.rx_bytes"), lossy.payload_bytes);
  EXPECT_EQ(registry.Total("runtime.retransmissions"),
            lossy.retransmissions);
  EXPECT_EQ(registry.Total("runtime.dedup_hits"), lossy.duplicates);
  EXPECT_EQ(registry.Total("runtime.epoch_gate_drops"),
            lossy.epoch_rejected);
  EXPECT_EQ(registry.Total("runtime.acks_lost"), lossy.acks_lost);
  EXPECT_EQ(registry.Total("runtime.messages_abandoned"),
            lossy.messages_abandoned);
  // Acks partition deliveries: every delivered packet is acked or lost.
  EXPECT_EQ(registry.Total("runtime.acks_delivered") +
                registry.Total("runtime.acks_lost"),
            lossy.deliveries);
  // Label sums reconcile with their totals.
  EXPECT_EQ(registry.NodeSum("runtime.tx_attempts"), lossy.attempts);
  EXPECT_EQ(registry.NodeSum("runtime.rx_packets"), lossy.deliveries);
  EXPECT_EQ(registry.EdgeSum("runtime.hop_transmissions"),
            registry.Total("runtime.hop_transmissions"));
  EXPECT_GT(registry.Total("runtime.hop_transmissions"), 0);
  // Every message terminates exactly once (acked or retries exhausted),
  // and its observed attempt count sums back to the attempt total.
  EXPECT_EQ(registry.HistogramSum("runtime.attempts_per_message"),
            lossy.attempts);
  EXPECT_EQ(registry.HistogramCount("runtime.round_ticks"), 1);
  EXPECT_EQ(registry.HistogramSum("runtime.round_ticks"), lossy.final_tick);

  // A second round keeps accumulating into the same registry.
  RuntimeNetwork::LossyResult second =
      network.RunRoundLossy(readings.values(), links);
  EXPECT_EQ(registry.Total("runtime.tx_attempts"),
            lossy.attempts + second.attempts);

}

TEST(MetricsReconciliationTest, SelfHealingRoundRecordsControlPlane) {
  Topology topology = MakeGreatDuckIslandLike();
  Workload workload = SmallWorkload(topology, 7);
  const NodeId base = workload.tasks.front().destination;
  SelfHealingRuntime runtime(topology, workload, base);
  obs::MetricsRegistry registry;
  runtime.set_metrics(&registry);

  // Fail every link around one node, permanently. Destinations are the
  // model's protected set (dead consumers make their aggregate undefined),
  // so pick a non-destination victim.
  std::vector<NodeId> destinations;
  for (const Task& task : workload.tasks) {
    destinations.push_back(task.destination);
  }
  NodeId victim = kInvalidNode;
  for (NodeId n = 0; n < topology.node_count(); ++n) {
    if (n != base && !topology.neighbors(n).empty() &&
        std::find(destinations.begin(), destinations.end(), n) ==
            destinations.end()) {
      victim = n;
      break;
    }
  }
  ASSERT_NE(victim, kInvalidNode);
  LossyLinkModel physical;
  physical.attempt_delivers = [victim](NodeId from, NodeId to, int) {
    return from != victim && to != victim;
  };
  physical.node_alive = [victim](NodeId n) { return n != victim; };

  ReadingGenerator readings(topology.node_count(), 19);
  SelfHealingRoundResult last;
  int64_t probe_tx = 0, hop_attempts = 0, control_bytes = 0;
  for (int round = 0; round < 12; ++round) {
    last = runtime.RunRound(round, readings.values(), physical);
    probe_tx += last.probe_transmissions;
    hop_attempts += last.control_hop_attempts;
    control_bytes += last.control_payload_bytes;
  }

  EXPECT_EQ(registry.Total("heal.probe_transmissions"), probe_tx);
  EXPECT_EQ(registry.Total("heal.control_hop_attempts"), hop_attempts);
  EXPECT_EQ(registry.Total("heal.control_payload_bytes"), control_bytes);
  // The dead node was detected and healed around: suspicions were raised,
  // at least one replan happened, and the epoch gauge tracks the base.
  EXPECT_GT(registry.Total("heal.suspicions_raised"), 0);
  EXPECT_GE(registry.Total("heal.replans"), 1);
  EXPECT_EQ(registry.Total("heal.base_epoch"),
            static_cast<int64_t>(runtime.base_epoch()));
  EXPECT_EQ(registry.Total("heal.pending_installs"),
            static_cast<int64_t>(last.pending_installs));
  EXPECT_GT(registry.Total("heal.images_queued") +
                registry.Total("heal.bumps_queued"),
            0);
  // Data-plane runtime.* metrics accumulated through the same registry.
  EXPECT_GT(registry.Total("runtime.tx_attempts"), 0);
}

TEST(MetricsReconciliationTest, SuppressedRoundsRecordOverrides) {
  Topology topology = MakeGreatDuckIslandLike();
  Workload workload = SmallWorkload(topology, 8);
  PathSystem paths(topology);
  GlobalPlan plan = BuildPlan(
      std::make_shared<MulticastForest>(paths, workload.tasks),
      workload.functions);
  auto compiled = std::make_shared<CompiledPlan>(
      CompiledPlan::Compile(plan, workload.functions));
  PlanExecutor executor(compiled, workload.functions, EnergyModel{});
  obs::MetricsRegistry registry;
  executor.set_metrics(&registry);

  ReadingGenerator readings(topology.node_count(), 23);
  executor.InitializeState(readings.values());
  // Only every third node's reading actually changes, matching the mask.
  std::vector<bool> changed(topology.node_count(), false);
  std::vector<double> next = readings.values();
  for (size_t n = 0; n < changed.size(); n += 3) {
    changed[n] = true;
    next[n] += 1.5;
  }
  RoundResult round = executor.RunSuppressedRound(
      next, changed, OverridePolicy::kAggressive);

  EXPECT_EQ(registry.Total("suppress.rounds"), 1);
  EXPECT_EQ(registry.Total("suppress.overrides"), round.overrides);
  EXPECT_EQ(registry.Total("suppress.payload_bytes"), round.payload_bytes);
  EXPECT_EQ(registry.Total("suppress.messages"), round.messages);
  EXPECT_GT(registry.Total("suppress.changed_sources"), 0);
  EXPECT_GT(registry.Total("suppress.suppressed_sources"), 0);
}

}  // namespace
}  // namespace m2m
