#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <map>
#include <memory>
#include <queue>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "plan/consistency.h"
#include "plan/node_tables.h"
#include "plan/planner.h"
#include "routing/multicast.h"
#include "routing/path_system.h"
#include "runtime/channel.h"
#include "runtime/network.h"
#include "sim/attempt_namespaces.h"
#include "sim/base_station.h"
#include "sim/executor.h"
#include "sim/fault_schedule.h"
#include "sim/physical_layer.h"
#include "sim/readings.h"
#include "sim/self_healing.h"
#include "fault_test_util.h"
#include "topology/generator.h"
#include "topology/topology.h"
#include "workload/workload.h"

namespace m2m {
namespace {

using fault_test::DefaultWorkload;
using fault_test::Destinations;
using fault_test::EpochOracle;
using fault_test::FaultRunResult;
using fault_test::LineWorkload;
using fault_test::ProtectedNodes;
using fault_test::RunFaultSchedule;
using fault_test::ValuesClose;

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string HexDigest(uint64_t digest) {
  std::ostringstream out;
  out << std::hex << std::setw(16) << std::setfill('0') << digest;
  return out.str();
}

FaultSchedule DefaultSchedule(const Topology& topology,
                              const Workload& workload, uint64_t seed) {
  FaultScheduleOptions options;
  options.rounds = 5;
  options.transient_link_fraction = 0.06;
  options.transient_drop_probability = 0.5;
  options.persistent_link_failures = 2;
  options.node_deaths = 1;
  options.seed = seed;
  return FaultSchedule::Generate(topology, Destinations(workload), options);
}

CompiledPlan CompileOver(const Topology& topology, const Workload& workload) {
  PathSystem paths(topology);
  return CompiledPlan::Compile(
      BuildPlan(std::make_shared<MulticastForest>(paths, workload.tasks),
                workload.functions),
      workload.functions);
}

// The acceptance criterion of the fault-tolerant runtime, checked over many
// seeded schedules: after every persistent fault has been absorbed by a
// local re-plan and the transient window has passed, all alive destinations
// converge to exactly the fault-free oracle over the surviving sources; and
// replaying the same schedule reproduces the event trace byte for byte.
class FaultDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FaultDifferential, ConvergesToOracleWithDeterministicTrace) {
  const uint64_t seed = GetParam();
  Topology topology = MakeGreatDuckIslandLike();
  Workload workload = DefaultWorkload(topology, seed * 17 + 3);
  FaultSchedule schedule = DefaultSchedule(topology, workload, seed);

  FaultRunResult run = RunFaultSchedule(topology, workload, schedule,
                                        /*readings_seed=*/seed + 1000);

  EXPECT_TRUE(run.replan_divergences.empty())
      << "Corollary 1 violated (seed " << seed
      << "): " << run.replan_divergences.front();
  EXPECT_TRUE(run.consistency_violations.empty())
      << "seed " << seed << ": " << run.consistency_violations.front();
  EXPECT_TRUE(run.value_mismatches.empty())
      << "seed " << seed << ": " << run.value_mismatches.front();

  // Convergence round: no transient faults remain, so every alive
  // destination completes and matches the analytic oracle exactly (up to
  // float merge order).
  EXPECT_TRUE(run.unconverged_destinations.empty())
      << "seed " << seed << ": destination "
      << run.unconverged_destinations.front() << " did not converge";
  ASSERT_EQ(run.final_values.size(), run.oracle_values.size());
  for (const auto& [destination, value] : run.final_values) {
    auto it = run.oracle_values.find(destination);
    ASSERT_NE(it, run.oracle_values.end()) << "destination " << destination;
    EXPECT_TRUE(ValuesClose(value, it->second))
        << "seed " << seed << " destination " << destination << ": " << value
        << " vs oracle " << it->second;
  }

  // Determinism: the same schedule replays to a byte-identical trace.
  FaultRunResult replay = RunFaultSchedule(topology, workload, schedule,
                                           /*readings_seed=*/seed + 1000);
  EXPECT_EQ(run.trace, replay.trace) << "seed " << seed;
  EXPECT_EQ(run.attempts, replay.attempts);
  EXPECT_EQ(run.retransmissions, replay.retransmissions);
}

INSTANTIATE_TEST_SUITE_P(TwentySeeds, FaultDifferential,
                         ::testing::Range<uint64_t>(1, 21));

TEST(FaultScheduleTest, GenerationIsDeterministic) {
  Topology topology = MakeGreatDuckIslandLike();
  Workload workload = DefaultWorkload(topology, 7);
  FaultSchedule a = DefaultSchedule(topology, workload, 42);
  FaultSchedule b = DefaultSchedule(topology, workload, 42);
  ASSERT_EQ(a.events().size(), b.events().size());
  EXPECT_EQ(a.Describe(), b.Describe());
  for (int round = 0; round < a.options().rounds; ++round) {
    for (NodeId n = 0; n < topology.node_count(); ++n) {
      for (NodeId m : topology.neighbors(n)) {
        for (int attempt = 1; attempt <= 4; ++attempt) {
          EXPECT_EQ(a.AttemptDelivers(round, n, m, attempt),
                    b.AttemptDelivers(round, n, m, attempt));
        }
      }
    }
  }
}

TEST(FaultScheduleTest, ProtectedNodesNeverDieAndSurvivorsStayConnected) {
  Topology topology = MakeGreatDuckIslandLike();
  Workload workload = DefaultWorkload(topology, 11);
  std::vector<NodeId> destinations = Destinations(workload);
  FaultScheduleOptions options;
  options.rounds = 6;
  options.persistent_link_failures = 4;
  options.node_deaths = 3;
  options.seed = 99;
  FaultSchedule schedule =
      FaultSchedule::Generate(topology, destinations, options);

  std::vector<NodeId> dead = schedule.DeadNodesThrough(options.rounds);
  for (NodeId d : destinations) {
    EXPECT_EQ(std::find(dead.begin(), dead.end(), d), dead.end())
        << "protected destination " << d << " died";
  }

  // The alive subgraph after all persistent faults must be connected (the
  // generator's accept/reject invariant — recovery is always possible).
  Topology masked = Topology::WithFailures(
      topology, schedule.FailedLinksThrough(options.rounds), dead);
  std::vector<bool> seen(masked.node_count(), false);
  std::queue<NodeId> frontier;
  NodeId start = kInvalidNode;
  for (NodeId n = 0; n < masked.node_count(); ++n) {
    if (std::find(dead.begin(), dead.end(), n) == dead.end()) {
      start = n;
      break;
    }
  }
  ASSERT_NE(start, kInvalidNode);
  seen[start] = true;
  frontier.push(start);
  while (!frontier.empty()) {
    NodeId n = frontier.front();
    frontier.pop();
    for (NodeId m : masked.neighbors(n)) {
      if (!seen[m]) {
        seen[m] = true;
        frontier.push(m);
      }
    }
  }
  for (NodeId n = 0; n < masked.node_count(); ++n) {
    if (std::find(dead.begin(), dead.end(), n) == dead.end()) {
      EXPECT_TRUE(seen[n]) << "alive node " << n << " disconnected";
    }
  }
}

// Brute-force oracle over FaultSchedule::events(): every query rescans the
// whole event list, transient events included.
struct ScheduleReference {
  const FaultSchedule* schedule;

  bool NodeAlive(int round, NodeId n) const {
    bool alive = true;
    for (const FaultEvent& event : schedule->events()) {
      if (event.round > round || event.a != n) continue;
      if (event.type == FaultType::kNodeDeath) alive = false;
      if (event.type == FaultType::kNodeRecover) alive = true;
    }
    return alive;
  }

  bool LinkUp(int round, NodeId from, NodeId to) const {
    const std::pair<NodeId, NodeId> link{std::min(from, to),
                                         std::max(from, to)};
    bool up = true;
    for (const FaultEvent& event : schedule->events()) {
      if (event.round > round || std::make_pair(event.a, event.b) != link) {
        continue;
      }
      if (event.type == FaultType::kPersistentLink) up = false;
      if (event.type == FaultType::kLinkHeal) up = true;
    }
    return up;
  }

  bool Flaky(int round, NodeId from, NodeId to) const {
    for (const FaultEvent& event : schedule->events()) {
      if (event.round == round && event.type == FaultType::kTransientLink &&
          event.a == std::min(from, to) && event.b == std::max(from, to)) {
        return true;
      }
    }
    return false;
  }

  // The per-attempt draw on a link that is flaky this round.
  bool TransientDelivers(int round, NodeId from, NodeId to,
                         int attempt) const {
    const uint64_t h = SplitMix64(
        schedule->options().seed ^ (static_cast<uint64_t>(round) << 48) ^
        (static_cast<uint64_t>(static_cast<uint32_t>(from)) << 26) ^
        (static_cast<uint64_t>(static_cast<uint32_t>(to)) << 5) ^
        static_cast<uint64_t>(attempt));
    return static_cast<double>(h >> 11) * 0x1.0p-53 >=
           schedule->options().transient_drop_probability;
  }
};

// Every FaultSchedule query at `rounds` against a full rescan of events():
// the liveness of every node, each directed topology link and each pair in
// `other_pairs` (not topology links, or ids outside the topology) in both
// directions at three attempts, and the persistent-event, dead-node and
// failed-link lists. Returns how many link queries hit a flaky link.
int64_t ExpectQueriesMatchReference(
    const Topology& topology, const FaultSchedule& schedule,
    const std::set<int>& rounds,
    const std::vector<std::pair<NodeId, NodeId>>& other_pairs) {
  const ScheduleReference reference{&schedule};
  int64_t flaky_queries = 0;
  for (int round : rounds) {
    std::vector<NodeId> dead;
    for (NodeId n = 0; n < topology.node_count(); ++n) {
      const bool alive = reference.NodeAlive(round, n);
      EXPECT_EQ(schedule.NodeAliveAt(round, n), alive)
          << "round " << round << " node " << n;
      if (!alive) dead.push_back(n);
    }
    EXPECT_EQ(schedule.DeadNodesThrough(round), dead) << "round " << round;
    std::vector<FaultEvent> persistent;
    for (const FaultEvent& event : schedule.events()) {
      if (event.round == round && event.type != FaultType::kTransientLink) {
        persistent.push_back(event);
      }
    }
    const std::vector<FaultEvent> at = schedule.PersistentEventsAt(round);
    EXPECT_TRUE(std::ranges::equal(
        at, persistent, [](const FaultEvent& x, const FaultEvent& y) {
          return x.round == y.round && x.type == y.type && x.a == y.a &&
                 x.b == y.b;
        }))
        << "round " << round;
    std::vector<std::pair<NodeId, NodeId>> pairs = other_pairs;
    std::vector<std::pair<NodeId, NodeId>> failed;
    for (NodeId a = 0; a < topology.node_count(); ++a) {
      for (NodeId b : topology.neighbors(a)) {
        if (a > b) continue;
        pairs.emplace_back(a, b);
        if (!reference.LinkUp(round, a, b)) failed.emplace_back(a, b);
      }
    }
    for (const auto& [a, b] : pairs) {
      const bool up = reference.NodeAlive(round, a) &&
                      reference.NodeAlive(round, b) &&
                      reference.LinkUp(round, a, b);
      const bool flaky = reference.Flaky(round, a, b);
      if (flaky) ++flaky_queries;
      for (const auto& [from, to] : {std::pair{a, b}, std::pair{b, a}}) {
        EXPECT_EQ(schedule.NodeAliveAt(round, from),
                  reference.NodeAlive(round, from))
            << "round " << round << " node " << from;
        for (int attempt : {1, 2, 7}) {
          const bool expected =
              up && (!flaky ||
                     reference.TransientDelivers(round, from, to, attempt));
          EXPECT_EQ(schedule.AttemptDelivers(round, from, to, attempt),
                    expected)
              << "round " << round << " link " << from << "->" << to
              << " attempt " << attempt;
        }
      }
    }
    std::sort(failed.begin(), failed.end());
    EXPECT_EQ(schedule.FailedLinksThrough(round), failed)
        << "round " << round;
  }
  return flaky_queries;
}

// Every fifth round, each persistent event's round and the round before
// it, and two rounds past the schedule.
std::set<int> ReferenceRounds(const FaultSchedule& schedule) {
  const int last = schedule.options().rounds;
  std::set<int> rounds = {last, last + 1};
  for (int round = 0; round < last; round += 5) rounds.insert(round);
  for (const FaultEvent& event : schedule.events()) {
    if (event.type == FaultType::kTransientLink) continue;
    rounds.insert(event.round);
    rounds.insert(event.round - 1);
  }
  return rounds;
}

// Pairs that are not topology links: each node a persistent event names
// with the next two such nodes (if not neighbors), with a far node and with
// ids outside the topology, and a few random pairs.
std::vector<std::pair<NodeId, NodeId>> NonLinkPairs(
    const Topology& topology, const FaultSchedule& schedule) {
  std::set<NodeId> named;
  for (const FaultEvent& event : schedule.events()) {
    if (event.type == FaultType::kTransientLink) continue;
    named.insert(event.a);
    if (event.b != kInvalidNode) named.insert(event.b);
  }
  const NodeId count = topology.node_count();
  std::vector<std::pair<NodeId, NodeId>> pairs = {
      {kInvalidNode, 0}, {count, count - 1}, {count + 7, kInvalidNode}};
  for (auto it = named.begin(); it != named.end(); ++it) {
    const NodeId x = *it;
    for (auto next = std::next(it);
         next != named.end() && std::distance(it, next) <= 2; ++next) {
      if (!topology.AreNeighbors(x, *next)) pairs.emplace_back(x, *next);
    }
    for (NodeId far : {NodeId{0}, count - 1}) {
      if (far != x && !topology.AreNeighbors(x, far)) {
        pairs.emplace_back(x, far);
      }
    }
    pairs.emplace_back(x, count);
    pairs.emplace_back(kInvalidNode, x);
  }
  Rng rng(11);
  for (int i = 0; i < 40; ++i) {
    const NodeId x = static_cast<NodeId>(rng.UniformInt(count));
    const NodeId y = static_cast<NodeId>(rng.UniformInt(count));
    if (x != y && !topology.AreNeighbors(x, y)) pairs.emplace_back(x, y);
  }
  return pairs;
}

// On a long schedule dense with transient faults, and on a heal_1k-shaped
// one (persistent faults only, on a network they mostly leave untouched),
// every FaultSchedule query must equal a full rescan of events(), also for
// pairs that are not topology links.
TEST(FaultScheduleTest, QueriesMatchBruteForceReferenceOnLongSchedule) {
  const Topology topology = MakeGrid(6, 6, 10.0, 15.0);
  FaultScheduleOptions options;
  options.rounds = 300;
  options.transient_link_fraction = 0.08;
  options.transient_drop_probability = 0.5;
  options.persistent_link_failures = 8;
  options.node_deaths = 4;
  options.link_heals = 4;
  options.node_recoveries = 2;
  options.recovery_delay_rounds = 40;
  options.seed = 5;
  const FaultSchedule schedule =
      FaultSchedule::Generate(topology, {0}, options);
  std::map<FaultType, int> kinds;
  for (const FaultEvent& event : schedule.events()) ++kinds[event.type];
  ASSERT_GT(kinds[FaultType::kTransientLink], 1000);
  ASSERT_GT(kinds[FaultType::kPersistentLink], 0);
  ASSERT_GT(kinds[FaultType::kNodeDeath], 0);
  ASSERT_GT(kinds[FaultType::kLinkHeal], 0);
  ASSERT_GT(kinds[FaultType::kNodeRecover], 0);
  EXPECT_GT(ExpectQueriesMatchReference(topology, schedule,
                                        ReferenceRounds(schedule),
                                        NonLinkPairs(topology, schedule)),
            0);

  // heal_1k's schedule shape (perfbench/workloads.cc) on 300 nodes.
  const Topology sparse = MakeScalingSeries({300}, 5).front();
  FaultScheduleOptions heal;
  heal.rounds = 50;
  heal.transient_link_fraction = 0.0;
  heal.persistent_link_failures = 4;
  heal.node_deaths = 3;
  heal.link_heals = 2;
  heal.node_recoveries = 2;
  heal.recovery_delay_rounds = heal.rounds / 8;
  for (uint64_t seed : {1u, 5u, 9u}) {
    heal.seed = seed;
    const FaultSchedule persistent =
        FaultSchedule::Generate(sparse, {0, 1}, heal);
    std::map<FaultType, int> heal_kinds;
    std::set<NodeId> named;
    for (const FaultEvent& event : persistent.events()) {
      ++heal_kinds[event.type];
      named.insert(event.a);
      if (event.b != kInvalidNode) named.insert(event.b);
    }
    EXPECT_EQ(heal_kinds[FaultType::kTransientLink], 0);
    EXPECT_GT(heal_kinds[FaultType::kLinkHeal], 0) << "seed " << seed;
    EXPECT_GT(heal_kinds[FaultType::kNodeRecover], 0) << "seed " << seed;
    EXPECT_LT(named.size(), 20u) << "seed " << seed;
    std::set<int> rounds = ReferenceRounds(persistent);
    for (int round = 0; round <= heal.rounds; ++round) rounds.insert(round);
    EXPECT_EQ(ExpectQueriesMatchReference(sparse, persistent, rounds,
                                          NonLinkPairs(sparse, persistent)),
              0);
  }
}

// Corollary 1, asserted directly: after a persistent link failure and a node
// death, re-solving only the affected edges yields the same plan as planning
// from scratch, while reusing most per-edge solutions.
TEST(LocalReplanTest, LocalReplanEqualsGlobalReplan) {
  Topology topology = MakeGreatDuckIslandLike();
  Workload workload = DefaultWorkload(topology, 5);
  PathSystem paths(topology);
  GlobalPlan plan = BuildPlan(
      std::make_shared<MulticastForest>(paths, workload.tasks),
      workload.functions);

  // Fail a link that actually carries traffic (the first physical hop of
  // the first planned edge) plus kill one source, so the re-plan is forced
  // to re-route.
  const ForestEdge& edge = plan.forest().edges().front();
  ASSERT_GE(edge.segment.size(), 2u);
  std::vector<std::pair<NodeId, NodeId>> failed_links = {
      {edge.segment[0], edge.segment[1]}};
  NodeId victim = workload.tasks.front().sources.front();
  Workload survivors =
      WithSourceRemoved(workload, victim, workload.tasks.front().destination);

  Topology masked =
      Topology::WithFailures(topology, failed_links, {victim});
  PathSystem masked_paths(masked);
  UpdateStats stats;
  GlobalPlan patched = ReplanForWorkload(plan, masked_paths, survivors.tasks,
                                         survivors.functions, &stats);
  GlobalPlan fresh =
      BuildPlan(patched.forest_ptr(), survivors.functions, plan.options());

  std::vector<std::string> divergence = FindPlanDivergence(patched, fresh);
  EXPECT_TRUE(divergence.empty()) << divergence.front();
  EXPECT_TRUE(PlansEquivalent(patched, fresh));
  EXPECT_TRUE(ValidatePlanConsistency(patched));
  EXPECT_EQ(stats.edges_total,
            static_cast<int>(patched.forest().edges().size()));
  // Locality: the failure touches a handful of routes; most edges keep
  // their solutions.
  EXPECT_GT(stats.edges_reused, 0);
  EXPECT_EQ(stats.edges_reused + stats.edges_reoptimized, stats.edges_total);
}

// A round under heavy transient loss: retries must recover every message
// (enough attempts for the drop rate), values must stay correct, and the
// trace must replay identically.
TEST(LossyRuntimeTest, RetriesRecoverFromHeavyTransientLoss) {
  Topology topology = MakeGreatDuckIslandLike();
  Workload workload = DefaultWorkload(topology, 21);
  FaultScheduleOptions options;
  options.rounds = 3;
  options.transient_link_fraction = 0.5;
  options.transient_drop_probability = 0.45;
  options.persistent_link_failures = 0;
  options.node_deaths = 0;
  options.seed = 77;
  FaultSchedule schedule =
      FaultSchedule::Generate(topology, Destinations(workload), options);

  RetryPolicy retry;
  retry.max_attempts = 8;
  FaultRunResult run =
      RunFaultSchedule(topology, workload, schedule, 2024, retry);

  EXPECT_GT(run.retransmissions, 0) << "loss model injected no retries";
  EXPECT_TRUE(run.value_mismatches.empty())
      << run.value_mismatches.front();
  EXPECT_TRUE(run.unconverged_destinations.empty());
  EXPECT_EQ(run.replans, 0);
  for (const auto& [destination, value] : run.final_values) {
    EXPECT_TRUE(ValuesClose(value, run.oracle_values.at(destination)));
  }
}

// Lost acks force retransmission of already-delivered messages; the
// receiver-side dedup must absorb the duplicates without corrupting any
// aggregate (idempotent retransmission).
TEST(LossyRuntimeTest, DuplicateDeliveriesAreSuppressed) {
  // A 1x6 line: all data flows toward higher ids, all acks toward lower
  // ids, so "drop the first attempt of every decreasing-id transmission"
  // loses every first ack while delivering every data packet.
  Topology topology = MakeGrid(6, 1, 10.0, 15.0);
  const Workload workload = LineWorkload();

  const CompiledPlan compiled = CompileOver(topology, workload);
  RuntimeNetwork network(compiled, workload.functions);

  LossyLinkModel links;
  links.attempt_delivers = [](NodeId from, NodeId to, int attempt) {
    return !(from > to && attempt == 1);
  };

  ReadingGenerator readings(topology.node_count(), 31);
  RuntimeNetwork::LossyResult lossy =
      network.RunRoundLossy(readings.values(), links);

  EXPECT_GT(lossy.acks_lost, 0);
  EXPECT_GT(lossy.retransmissions, 0);
  EXPECT_GT(lossy.duplicates, 0);
  EXPECT_EQ(lossy.messages_abandoned, 0);
  EXPECT_TRUE(lossy.incomplete_destinations.empty());

  double expected = 1.0 * readings.values()[0] + 2.0 * readings.values()[1] +
                    3.0 * readings.values()[2];
  ASSERT_EQ(lossy.destination_values.size(), 1u);
  EXPECT_TRUE(ValuesClose(lossy.destination_values.at(5), expected));
}

// When the retry budget cannot beat a dead link mid-route, the affected
// destination is reported incomplete (not CHECK-crashed) and untouched
// destinations still complete.
TEST(LossyRuntimeTest, ExhaustedRetriesReportIncompleteDestinations) {
  Topology topology = MakeGrid(6, 1, 10.0, 15.0);
  Workload workload;
  workload.tasks = {Task{5, {0, 3}}};
  FunctionSpec spec;
  spec.kind = AggregateKind::kWeightedSum;
  spec.weights = {{0, 1.0}, {3, 1.0}};
  workload.specs = {spec};
  workload.RebuildFunctions();

  const CompiledPlan compiled = CompileOver(topology, workload);
  RuntimeNetwork network(compiled, workload.functions);

  // Link 0->1 never delivers: source 0's contribution can never reach 5.
  LossyLinkModel links;
  links.attempt_delivers = [](NodeId from, NodeId to, int) {
    return !(from == 0 && to == 1);
  };

  ReadingGenerator readings(topology.node_count(), 8);
  RuntimeNetwork::LossyResult lossy =
      network.RunRoundLossy(readings.values(), links);

  EXPECT_GT(lossy.messages_abandoned, 0);
  ASSERT_EQ(lossy.incomplete_destinations.size(), 1u);
  EXPECT_EQ(lossy.incomplete_destinations.front(), 5);
  EXPECT_TRUE(lossy.destination_values.empty());
}

// Fault-free lossy execution must agree with the analytic executor: the
// lossless round is the lossy path over perfect links.
TEST(LossyRuntimeTest, PerfectLinksMatchQuiescentRuntime) {
  Topology topology = MakeGreatDuckIslandLike();
  Workload workload = DefaultWorkload(topology, 3);
  const CompiledPlan compiled = CompileOver(topology, workload);

  ReadingGenerator readings(topology.node_count(), 12);
  PlanExecutor executor(std::make_shared<CompiledPlan>(compiled),
                        workload.functions, EnergyModel{});
  RoundResult reference = executor.RunRound(readings.values());

  RuntimeNetwork network(compiled, workload.functions);
  RuntimeNetwork::LossyResult lossy =
      network.RunRoundLossy(readings.values(), PhysicalLayer{}.Bind(0));

  EXPECT_EQ(lossy.retransmissions, 0);
  EXPECT_EQ(lossy.duplicates, 0);
  EXPECT_EQ(lossy.messages_abandoned, 0);
  ASSERT_EQ(lossy.destination_values.size(),
            reference.destination_values.size());
  for (const auto& [destination, value] : reference.destination_values) {
    EXPECT_TRUE(ValuesClose(lossy.destination_values.at(destination), value))
        << "destination " << destination;
  }
}

// The receiver-side dedup table must stay constant-size over arbitrarily
// long deployments: entries are evicted once they age past the retry
// horizon (no sender still retransmits them), and StartRound clears the
// remainder. Regression for the unbounded-growth bug class.
TEST(LossyRuntimeTest, DedupTableStaysConstantSizeOverTenThousandRounds) {
  Topology topology = MakeGrid(6, 1, 10.0, 15.0);
  const Workload workload = LineWorkload();

  const CompiledPlan compiled = CompileOver(topology, workload);
  RuntimeNetwork network(compiled, workload.functions);

  // Every first ack drops, so every message is delivered at least twice —
  // the dedup table is exercised on every hop of every round.
  LossyLinkModel links;
  links.attempt_delivers = [](NodeId from, NodeId to, int attempt) {
    return !(from > to && attempt == 1);
  };

  ReadingGenerator readings(topology.node_count(), 47);
  const int kRounds = 10000;
  size_t early_max = 0;  // Max table size in the first 100 rounds.
  size_t late_max = 0;   // Max table size in the last 100 rounds.
  // Capped trace mode: a ring of the most recent records must hold memory
  // constant over the whole run while every round keeps appending.
  EventTrace trace;
  const size_t kTraceCapacity = 256;
  trace.set_capacity(kTraceCapacity);
  size_t early_trace_bytes = 0;  // Retained bytes once the ring is full.
  size_t late_trace_bytes = 0;
  for (int round = 0; round < kRounds; ++round) {
    RuntimeNetwork::LossyResult lossy =
        network.RunRoundLossy(readings.values(), links, {}, {}, &trace);
    ASSERT_LE(trace.size(), kTraceCapacity) << "round " << round;
    if (round == 100) early_trace_bytes = trace.RetainedBytes();
    if (round == kRounds - 1) late_trace_bytes = trace.RetainedBytes();
    ASSERT_GT(lossy.duplicates, 0) << "round " << round;
    ASSERT_TRUE(lossy.incomplete_destinations.empty()) << "round " << round;
    size_t round_max = 0;
    for (NodeId n = 0; n < topology.node_count(); ++n) {
      round_max = std::max(round_max, network.node_runtime(n).seen_packet_count());
    }
    // Constant bound: never more entries than messages within one retry
    // horizon of this tiny plan, no matter how many rounds have passed.
    ASSERT_LE(round_max, 8u) << "round " << round;
    if (round < 100) early_max = std::max(early_max, round_max);
    if (round >= kRounds - 100) late_max = std::max(late_max, round_max);
    if (round % 1000 == 0) {
      double expected = 1.0 * readings.values()[0] +
                        2.0 * readings.values()[1] +
                        3.0 * readings.values()[2];
      ASSERT_TRUE(ValuesClose(lossy.destination_values.at(5), expected));
    }
  }
  // Steady state, not slow growth.
  EXPECT_EQ(early_max, late_max);
  EXPECT_GT(late_max, 0u);
  // The capped trace ran the whole deployment in constant memory: the ring
  // was full by round 100 and retained exactly the same bytes at the end,
  // while the append counter kept advancing and the overflow was dropped.
  EXPECT_EQ(early_trace_bytes, late_trace_bytes);
  EXPECT_GT(late_trace_bytes, 0u);
  EXPECT_EQ(trace.size(), kTraceCapacity);
  EXPECT_GT(trace.total_appended(), static_cast<uint64_t>(kRounds));
  EXPECT_EQ(trace.dropped(), trace.total_appended() - kTraceCapacity);
}

// Boundary regression for dedup under reordering + delay: a maximally
// delayed first attempt that lands AFTER a retransmission was already
// delivered and acked arrives right at the eviction boundary — the dedup
// horizon is extended by exactly the channel's max delay, so the late copy
// must still be recognized and suppressed, never re-applied. Were the
// horizon not extended, the stale copy would double-count its contribution
// and the differential below would break.
TEST(LossyRuntimeTest, DelayedDuplicateAtEvictionBoundaryIsSuppressed) {
  Topology topology = MakeGrid(6, 1, 10.0, 15.0);
  const Workload workload = LineWorkload();

  const CompiledPlan compiled = CompileOver(topology, workload);
  RuntimeNetwork network(compiled, workload.functions);

  // Every first ack drops (forcing a retransmission of a delivered packet)
  // and every first data attempt is delayed by the full channel bound: the
  // retransmission overtakes the original, which then arrives as a stale
  // reordered duplicate near the end of the dedup window.
  const int kMaxDelay = 4;
  LossyLinkModel links;
  links.attempt_delivers = [](NodeId from, NodeId to, int attempt) {
    return !(from > to && attempt == 1);
  };
  links.hop_effects = [](NodeId from, NodeId to, int attempt) {
    HopEffects effects;
    if (from < to && attempt == 1) effects.delay_ticks = kMaxDelay;
    return effects;
  };
  links.max_delay_ticks = kMaxDelay;

  RetryPolicy retry;
  retry.ack_timeout_ticks = 2;  // Retransmit before the delayed original.

  ReadingGenerator readings(topology.node_count(), 53);
  const double expected = 1.0 * readings.values()[0] +
                          2.0 * readings.values()[1] +
                          3.0 * readings.values()[2];
  int64_t reordered_total = 0;
  for (int round = 0; round < 50; ++round) {
    RuntimeNetwork::LossyResult lossy =
        network.RunRoundLossy(readings.values(), links, retry);
    ASSERT_GT(lossy.duplicates, 0) << "round " << round;
    reordered_total += lossy.reordered_deliveries;
    ASSERT_TRUE(lossy.incomplete_destinations.empty()) << "round " << round;
    ASSERT_TRUE(ValuesClose(lossy.destination_values.at(5), expected))
        << "round " << round << ": stale duplicate re-applied";
    // Dedup entries live `max_delay_ticks` longer than the clean-channel
    // horizon but are still evicted: the table stays bounded.
    for (NodeId n = 0; n < topology.node_count(); ++n) {
      ASSERT_LE(network.node_runtime(n).seen_packet_count(), 12u)
          << "round " << round;
    }
  }
  EXPECT_GT(reordered_total, 0) << "delay never caused a reorder";
}

// Exactly-once delivery under delayed acks, across the whole retry-budget
// range: an ack in flight while the sender retransmits must not cause a
// double-apply, whether the budget is a single attempt (no retransmission
// possible), the default-ish 8, or 40 (deep backoff, exercising the
// overflow clamp).
TEST(LossyRuntimeTest, DelayedAcksPreserveExactlyOnceAcrossRetryBudgets) {
  Topology topology = MakeGrid(6, 1, 10.0, 15.0);
  const Workload workload = LineWorkload();

  const CompiledPlan compiled = CompileOver(topology, workload);

  // Data always delivers; acks always deliver but arrive 3 ticks late —
  // after the sender's first backoff expires, so budgets > 1 retransmit a
  // message whose ack is already in flight.
  const int kAckDelay = 3;
  LossyLinkModel links;
  links.attempt_delivers = [](NodeId, NodeId, int) { return true; };
  links.hop_effects = [](NodeId from, NodeId to, int) {
    HopEffects effects;
    if (from > to) effects.delay_ticks = kAckDelay;
    return effects;
  };
  links.max_delay_ticks = kAckDelay;

  ReadingGenerator readings(topology.node_count(), 61);
  const double expected = 1.0 * readings.values()[0] +
                          2.0 * readings.values()[1] +
                          3.0 * readings.values()[2];
  for (int max_attempts : {1, 8, 40}) {
    RuntimeNetwork network(compiled, workload.functions);
    RetryPolicy retry;
    retry.max_attempts = max_attempts;
    retry.ack_timeout_ticks = 2;
    RuntimeNetwork::LossyResult lossy =
        network.RunRoundLossy(readings.values(), links, retry);
    // Data never drops, so every destination completes for every budget,
    // and the late ack must stop the retransmission loop before the budget
    // matters: nothing is ever abandoned.
    EXPECT_EQ(lossy.messages_abandoned, 0) << "max_attempts " << max_attempts;
    ASSERT_TRUE(lossy.incomplete_destinations.empty())
        << "max_attempts " << max_attempts;
    ASSERT_TRUE(ValuesClose(lossy.destination_values.at(5), expected))
        << "max_attempts " << max_attempts << ": duplicate applied twice";
    if (max_attempts == 1) {
      // No budget to retransmit: the delayed ack is simply absorbed.
      EXPECT_EQ(lossy.retransmissions, 0);
      EXPECT_EQ(lossy.duplicates, 0);
    } else {
      // The sender retransmitted into the ack's delay window at least once;
      // the receiver-side dedup absorbed every extra copy.
      EXPECT_GT(lossy.retransmissions, 0) << "max_attempts " << max_attempts;
      EXPECT_GT(lossy.duplicates, 0) << "max_attempts " << max_attempts;
    }
  }
}

// Golden for the receiver dedup tables over a long lossy deployment: a
// 210-node grid under a lossy, delaying, duplicating and corrupting channel
// while nodes die and recover. After every round the digest takes each
// alive node's dedup-table size and the round's LossyResult. An eviction
// agenda that evicts one tick early or one tick late moves both the digest
// and the eviction count.
TEST(LossyRuntimeTest, DedupTablesMatchGoldenUnderDelayDuplicationAndDeaths) {
  Topology topology = MakeGrid(15, 14, 10.0, 15.0);
  WorkloadSpec spec;
  spec.destination_count = 10;
  spec.sources_per_destination = 6;
  spec.max_hops = 6;
  spec.seed = 19;
  Workload workload = GenerateWorkload(topology, spec);
  const CompiledPlan compiled = CompileOver(topology, workload);
  RuntimeNetwork network(compiled, workload.functions);

  ChannelOptions options;
  options.good_loss = 0.2;
  options.delay_probability = 0.3;
  options.max_delay_ticks = 3;
  options.duplicate_probability = 0.15;
  options.corrupt_probability = 0.05;
  options.seed = 77;
  ChannelModel channel(options);
  // Every 4 rounds a different ~1/23 of the nodes is down; the previous
  // window's nodes recover.
  auto alive_in = [](int round) {
    return [round](NodeId n) { return (n * 7 + round / 4) % 23 != 0; };
  };

  ReadingGenerator readings(topology.node_count(), 61);
  const int kRounds = 36;
  std::ostringstream bytes;
  int64_t evictions = 0;
  int dead_tables_cleared = 0;
  std::vector<size_t> previous(topology.node_count(), 0);
  for (int round = 0; round < kRounds; ++round) {
    readings.Advance(1.0);
    const auto alive = alive_in(round);
    LossyLinkModel liveness;
    liveness.node_alive = alive;
    RuntimeNetwork::LossyResult r = network.RunRoundLossy(
        readings.values(),
        PhysicalLayer{.channel = &channel, .base = &liveness}.Bind(round));
    bytes << "r" << round << " att=" << r.attempts << " del=" << r.deliveries
          << " dup=" << r.duplicates << " retx=" << r.retransmissions
          << " ackl=" << r.acks_lost << " ab=" << r.messages_abandoned
          << " epr=" << r.epoch_rejected << " b=" << r.payload_bytes
          << " t=" << r.final_tick << " cor=" << r.corrupt_frames
          << " sp=" << r.spontaneous_duplicates
          << " reo=" << r.reordered_deliveries << " heard=" << r.heard.size()
          << " e=" << std::hexfloat << r.energy_mj << std::defaultfloat;
    std::map<NodeId, double> values(r.destination_values.begin(),
                                    r.destination_values.end());
    for (const auto& [d, v] : values) {
      bytes << " d" << d << "=" << std::hexfloat << v << std::defaultfloat;
    }
    bytes << " inc=" << r.incomplete_destinations.size() << " seen=";
    int64_t seen_total = 0;
    for (NodeId n = 0; n < topology.node_count(); ++n) {
      const size_t seen = network.node_runtime(n).seen_packet_count();
      if (alive(n)) {
        bytes << seen << ",";
        seen_total += static_cast<int64_t>(seen);
      } else {
        // Documented dead-node behaviour: a dead participant's leftover
        // table is cleared at round start, and a dead node never receives.
        EXPECT_EQ(seen, 0u) << "dead node " << n << " round " << round;
        if (previous[n] > 0) ++dead_tables_cleared;
      }
      previous[n] = seen;
    }
    bytes << "\n";
    // Every fresh receive adds one entry; what the round did not evict is
    // still in an alive node's table (alive participants start empty).
    EXPECT_EQ(r.dedup_evictions,
              r.deliveries - r.duplicates - r.epoch_rejected - seen_total)
        << "round " << round;
    evictions += r.dedup_evictions;
  }
  EXPECT_GT(dead_tables_cleared, 0) << "no dead node ever held a table";
  // The digest was recorded with a per-tick eviction sweep over all nodes,
  // an independent implementation of the same rule; the count with the
  // agenda.
  EXPECT_EQ(HexDigest(Fnv1a64(bytes.str())), "4159112d0c5b4074");
  EXPECT_EQ(evictions, 3546);
}

// The participant list follows InstallNodeImage across an epoch change:
// on a line 0..7, plan 0 aggregates sources {1, 2} at node 5 and plan 1
// sources {2, 3} at node 6, so installing plan 1 moves node 6 into the plan
// (it gains tables) and node 1 out of it (it loses every entry). Rounds on
// the new plan still complete with the directly evaluated value.
TEST(LossyRuntimeTest, ParticipantListFollowsInstallsAcrossEpochs) {
  Topology topology = MakeGrid(8, 1, 10.0, 15.0);
  auto make_workload = [](NodeId destination, NodeId a, NodeId b) {
    Workload workload;
    workload.tasks = {Task{destination, {a, b}}};
    FunctionSpec spec;
    spec.kind = AggregateKind::kWeightedSum;
    spec.weights = {{a, 1.5}, {b, -2.0}};
    workload.specs = {spec};
    workload.RebuildFunctions();
    return workload;
  };
  auto compile = [&](const Workload& workload, uint32_t epoch) {
    PathSystem paths(topology);
    GlobalPlan plan = BuildPlan(
        std::make_shared<MulticastForest>(paths, workload.tasks),
        workload.functions);
    return CompiledPlan::Compile(plan, workload.functions,
                                 MergePolicy::kGreedyMergePerEdge, epoch);
  };
  const Workload before = make_workload(5, 1, 2);
  const Workload after = make_workload(6, 2, 3);
  const CompiledPlan epoch0 = compile(before, 0);
  const CompiledPlan epoch1 = compile(after, 1);
  ASSERT_EQ(epoch1.state(1).entry_count(), 0);
  ASSERT_EQ(epoch0.state(6).entry_count(), 0);

  RuntimeNetwork network(epoch0, before.functions);
  EXPECT_EQ(network.participants(), (std::vector<NodeId>{1, 2, 3, 4, 5}));

  const std::vector<std::vector<uint8_t>> images =
      EncodeAllNodeStates(epoch1, after.functions);
  for (NodeId n = 0; n < topology.node_count(); ++n) {
    ASSERT_TRUE(network.InstallNodeImage(n, images[n], epoch1));
  }
  EXPECT_EQ(network.participants(), (std::vector<NodeId>{2, 3, 4, 5, 6}));

  ReadingGenerator readings(topology.node_count(), 29);
  for (int round = 0; round < 3; ++round) {
    readings.Advance(1.0);
    const std::vector<double>& values = readings.values();
    const double expected = 1.5 * values[2] - 2.0 * values[3];
    RuntimeNetwork::LossyResult lossy = network.RunRound(values);
    ASSERT_EQ(lossy.destination_values.size(), 1u);
    EXPECT_TRUE(ValuesClose(lossy.destination_values.at(6), expected));
    EXPECT_EQ(lossy.destination_epochs.at(6), 1u);
    EXPECT_EQ(lossy.destination_coverage.at(6).expected, 2);
  }
}

// Each message's retry horizon fits the tick domain, but a chain of
// dependent messages can still run past INT_MAX: every message needs its
// second attempt, each waiting 2^30 - 2 ticks, and each arrival emits the
// next hop's message. The round must fail loudly instead of wrapping its
// int tick to a negative final_tick.
TEST(LossyRuntimeDeathTest, DependentMessageChainPastIntMaxFailsLoudly) {
  RetryPolicy retry;
  retry.max_attempts = 2;
  retry.backoff_factor = 1;
  retry.ack_timeout_ticks = (1 << 30) - 2;
  retry.max_backoff_ticks = retry.ack_timeout_ticks;
  LossyLinkModel links;
  links.attempt_delivers = [](NodeId, NodeId, int attempt) {
    return attempt >= 2;
  };
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Topology topology = MakeUniformRandom(56, Area{110.0, 190.0},
                                          kDefaultRadioRangeM,
                                          0xA5EED + seed);
    WorkloadSpec spec;
    spec.destination_count = 4;
    spec.sources_per_destination = 5;
    spec.max_hops = 4;
    spec.seed = seed;
    Workload workload = GenerateWorkload(topology, spec);
    PathSystem paths(topology);
    GlobalPlan plan = BuildPlan(
        std::make_shared<MulticastForest>(paths, workload.tasks),
        workload.functions);
    CompiledPlan compiled = CompiledPlan::Compile(plan, workload.functions);
    RuntimeNetwork network(compiled, workload.functions);
    ReadingGenerator readings(topology.node_count(), seed);
    EXPECT_DEATH(network.RunRoundLossy(readings.values(), links, retry),
                 "lossy round tick overflows int")
        << "seed " << seed;
  }
}

// Dissemination under loss: plan images, epoch bumps and install acks are
// themselves dropped (75% per attempt, on top of the schedule's faults).
// The epoch protocol must keep retrying until every affected node acked the
// new plan, and the epoch gate must hold mixed rounds safe: every completed
// value matches the analytic executor of exactly its reported epoch.
class DisseminationLoss : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DisseminationLoss, EpochProtocolRetriesUntilAllAffectedNodesAck) {
  const uint64_t seed = GetParam();
  Topology topology = MakeGreatDuckIslandLike();
  Workload workload = DefaultWorkload(topology, seed * 23 + 5);
  NodeId base = PickBaseStation(topology);
  const std::vector<NodeId> protected_nodes = ProtectedNodes(workload, base);
  FaultScheduleOptions schedule_options;
  schedule_options.rounds = 5;
  schedule_options.transient_link_fraction = 0.06;
  schedule_options.transient_drop_probability = 0.5;
  schedule_options.persistent_link_failures = 2;
  schedule_options.node_deaths = 1;
  schedule_options.seed = seed;
  FaultSchedule schedule =
      FaultSchedule::Generate(topology, protected_nodes, schedule_options);

  SelfHealingRuntime runtime(topology, workload, base);
  // Deterministic extra loss on the dissemination namespaces (images,
  // bumps, install acks: attempt indices >= kImageAttemptBase).
  auto dissemination_dropped = [seed](int round, NodeId from, NodeId to,
                                      int attempt) {
    uint64_t h = static_cast<uint64_t>(round) * 0x9e3779b97f4a7c15ull;
    h ^= (static_cast<uint64_t>(from) << 32) ^
         (static_cast<uint64_t>(to) << 16) ^ static_cast<uint64_t>(attempt);
    h ^= seed * 0xbf58476d1ce4e5b9ull;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    return h % 4 != 0;  // 75% of dissemination attempts drop.
  };

  EpochOracle epochs;
  epochs.Record(runtime);

  const int total_rounds = schedule_options.rounds + 25;
  int64_t total_epoch_rejected = 0;
  int64_t total_control_attempts = 0;
  int64_t total_control_hops = 0;
  int rounds_with_pending = 0;
  int replans = 0;
  SelfHealingRoundResult last;
  for (int round = 0; round < total_rounds; ++round) {
    ReadingGenerator readings(topology.node_count(),
                              seed + 500 + static_cast<uint64_t>(round));
    LossyLinkModel dissemination;
    dissemination.attempt_delivers = [&dissemination_dropped, round](
                                         NodeId from, NodeId to, int attempt) {
      return !(attempt >= kImageAttemptBase &&
               dissemination_dropped(round, from, to, attempt));
    };
    last = runtime.RunRound(
        round, readings.values(),
        PhysicalLayer{.faults = &schedule, .base = &dissemination}.Bind(round));
    total_epoch_rejected += last.data.epoch_rejected;
    total_control_attempts += last.control_hop_attempts;
    total_control_hops += last.control_hops_crossed;
    if (last.pending_installs > 0) ++rounds_with_pending;
    if (last.replanned) {
      ++replans;
      epochs.Record(runtime);
    }
    // Safe transitions: every completed value is attributable to exactly
    // the epoch the destination reports — never a cross-epoch mixture.
    std::vector<std::string> mismatches;
    epochs.Check(round, last.data, readings.values(), mismatches);
    EXPECT_TRUE(mismatches.empty()) << "seed " << seed << " " << mismatches[0];
  }

  EXPECT_GE(replans, 1) << "seed " << seed;
  // The protocol had to retry: dissemination dropped most attempts, so the
  // base kept installs pending across rounds and burned extra attempts.
  EXPECT_GT(rounds_with_pending, 0) << "seed " << seed;
  EXPECT_GT(total_control_attempts, total_control_hops) << "seed " << seed;
  // ...and it eventually won: every affected node acked the current epoch.
  EXPECT_EQ(last.pending_installs, 0) << "seed " << seed;
  EXPECT_TRUE(last.data.incomplete_destinations.empty()) << "seed " << seed;
  for (const auto& [destination, epoch] : last.data.destination_epochs) {
    EXPECT_EQ(epoch, runtime.base_epoch())
        << "seed " << seed << " destination " << destination;
  }
  (void)total_epoch_rejected;  // Diagnostic; may be 0 on lucky seeds.
}

INSTANTIATE_TEST_SUITE_P(SixSeeds, DisseminationLoss,
                         ::testing::Range<uint64_t>(1, 7));

}  // namespace
}  // namespace m2m
