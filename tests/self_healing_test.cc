#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "fault_test_util.h"
#include "plan/consistency.h"
#include "plan/dissemination.h"
#include "plan/node_tables.h"
#include "plan/planner.h"
#include "plan/serialization.h"
#include "routing/multicast.h"
#include "routing/path_system.h"
#include "runtime/channel.h"
#include "runtime/detector.h"
#include "runtime/network.h"
#include "runtime/wire_functions.h"
#include "sim/base_station.h"
#include "sim/executor.h"
#include "sim/fault_schedule.h"
#include "sim/readings.h"
#include "sim/self_healing.h"
#include "topology/generator.h"
#include "topology/topology.h"
#include "workload/workload.h"

namespace m2m {
namespace {

using fault_test::Destinations;
using fault_test::ValuesClose;

Workload DefaultWorkload(const Topology& topology, uint64_t seed) {
  WorkloadSpec spec;
  spec.destination_count = 5;
  spec.sources_per_destination = 5;
  spec.max_hops = 4;
  spec.seed = seed;
  return GenerateWorkload(topology, spec);
}

// The self-healing runs protect the base station alongside the
// destinations: a dead base station has no in-network recovery story (it
// is the re-planner).
FaultSchedule SelfHealSchedule(const Topology& topology,
                               const Workload& workload, NodeId base,
                               uint64_t seed) {
  std::vector<NodeId> protected_nodes = Destinations(workload);
  if (std::find(protected_nodes.begin(), protected_nodes.end(), base) ==
      protected_nodes.end()) {
    protected_nodes.push_back(base);
  }
  FaultScheduleOptions options;
  options.rounds = 5;
  options.transient_link_fraction = 0.06;
  options.transient_drop_probability = 0.5;
  options.persistent_link_failures = 2;
  options.node_deaths = 1;
  options.seed = seed;
  return FaultSchedule::Generate(topology, protected_nodes, options);
}

Workload SurvivorWorkload(const Workload& workload,
                          const std::vector<NodeId>& dead) {
  Workload survivors = workload;
  for (NodeId d : dead) {
    for (const Task& task : std::vector<Task>(survivors.tasks)) {
      if (std::find(task.sources.begin(), task.sources.end(), d) !=
          task.sources.end()) {
        survivors = WithSourceRemoved(survivors, d, task.destination);
      }
    }
  }
  return survivors;
}

/// Everything one oracle-free self-healing run produces.
struct SelfHealRun {
  std::string trace;
  /// Completed values whose attributed epoch's analytic executor disagreed.
  std::vector<std::string> value_mismatches;
  /// Corollary 1 violations: a replan changed an edge outside the
  /// predicted perturbation set for its old -> new transition.
  std::vector<std::string> corollary_violations;
  /// Nodes whose image differed from a full encode of the runtime's
  /// compiled plan after a replan (the commit re-encodes only possibly
  /// changed nodes and restamps the rest).
  std::vector<std::string> image_mismatches;
  /// Workload pairs whose path weight over the ledger's belief graph
  /// differed from the weight over that graph with every unreachable node
  /// masked out, at some replan.
  std::vector<std::string> path_weight_mismatches;
  /// (lo, hi) believed-failed link -> first round it was believed.
  std::map<std::pair<NodeId, NodeId>, int> first_believed_link;
  /// Believed-dead node -> first round it was believed dead.
  std::map<NodeId, int> first_believed_dead;
  std::unordered_map<NodeId, double> final_values;
  std::unordered_map<NodeId, uint32_t> final_epochs;
  std::vector<NodeId> final_incomplete;
  uint32_t final_epoch = 0;
  int final_pending_installs = -1;
  int64_t probe_transmissions = 0;
  int64_t control_hop_attempts = 0;
  int64_t control_payload_bytes = 0;
  int64_t epoch_rejected = 0;
  int replans = 0;
  std::vector<std::pair<NodeId, NodeId>> believed_links;
  std::vector<NodeId> believed_dead;
  std::optional<GlobalPlan> final_plan;
  Workload final_workload;
};

SelfHealRun RunSelfHealing(const Topology& topology, const Workload& workload,
                           const FaultSchedule& schedule, NodeId base,
                           uint64_t readings_seed, int total_rounds) {
  EventTrace trace;
  trace.Append(schedule.Describe());
  SelfHealingOptions options;
  SelfHealingRuntime runtime(topology, workload, base, options);

  // Analytic executor per plan epoch, for attributing completed values.
  std::map<uint32_t, PlanExecutor> executors;
  executors.emplace(
      0u, PlanExecutor(std::make_shared<CompiledPlan>(runtime.compiled()),
                       runtime.current_workload().functions, EnergyModel{}));

  SelfHealRun run;
  for (int round = 0; round < total_rounds; ++round) {
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

    // Snapshot the live plan so each replan's divergence can be bounded by
    // its Corollary 1 predicted perturbation set.
    GlobalPlan pre_plan = runtime.plan();
    FunctionSet pre_functions = runtime.current_workload().functions;

    SelfHealingRoundResult result =
        runtime.RunRound(round, readings.values(), physical, &trace);
    run.probe_transmissions += result.probe_transmissions;
    run.control_hop_attempts += result.control_hop_attempts;
    run.control_payload_bytes += result.control_payload_bytes;
    run.epoch_rejected += result.data.epoch_rejected;
    if (result.replanned) {
      run.replans += 1;
      executors.emplace(
          runtime.base_epoch(),
          PlanExecutor(std::make_shared<CompiledPlan>(runtime.compiled()),
                       runtime.current_workload().functions, EnergyModel{}));
      // Corollary 1, per replan: the edges this transition actually
      // changed must lie inside the predicted perturbation set.
      std::vector<DirectedEdge> divergent =
          DivergentEdgeKeys(pre_plan, runtime.plan());
      std::vector<DirectedEdge> predicted = PredictedPerturbedEdges(
          pre_plan, pre_functions, runtime.plan(),
          runtime.current_workload().functions);
      for (const DirectedEdge& edge : divergent) {
        if (!std::binary_search(predicted.begin(), predicted.end(), edge)) {
          std::ostringstream violation;
          violation << "r" << round << " edge " << edge.tail << "->"
                    << edge.head << " outside the predicted set ("
                    << divergent.size() << " divergent, "
                    << predicted.size() << " predicted)";
          run.corollary_violations.push_back(violation.str());
        }
      }
      const std::vector<std::vector<uint8_t>> full = EncodeAllNodeStates(
          runtime.compiled(), runtime.current_workload().functions);
      for (NodeId n = 0; n < topology.node_count(); ++n) {
        if (runtime.images()[n] != full[n]) {
          run.image_mismatches.push_back("r" + std::to_string(round) +
                                         " node " + std::to_string(n));
        }
      }
      // The replan routed over the ledger's belief graph, which keeps the
      // unreachable nodes. The believed workload names only nodes the base
      // reaches, so masking the others must change no weight it reads.
      const SuspicionLedger& ledger = runtime.ledger();
      std::vector<NodeId> unreachable = ledger.believed_dead();
      unreachable.insert(unreachable.end(),
                         ledger.believed_partitioned().begin(),
                         ledger.believed_partitioned().end());
      std::sort(unreachable.begin(), unreachable.end());
      const PathSystem belief_paths(ledger.belief_graph());
      const PathSystem masked_paths(Topology::WithFailures(
          topology, ledger.believed_failed_links(), unreachable));
      for (const Task& task : runtime.current_workload().tasks) {
        for (NodeId source : task.sources) {
          if (belief_paths.PathWeight(task.destination, source) !=
              masked_paths.PathWeight(task.destination, source)) {
            run.path_weight_mismatches.push_back(
                "r" + std::to_string(round) + " d" +
                std::to_string(task.destination) + " s" +
                std::to_string(source));
          }
        }
      }
    }

    // Epoch attribution: every completed value must equal the analytic
    // executor of exactly the epoch the destination reports — the "no
    // silent cross-plan merge" differential.
    std::map<uint32_t, std::unordered_map<NodeId, double>> analytic_by_epoch;
    for (const auto& [destination, value] : result.data.destination_values) {
      uint32_t epoch = result.data.destination_epochs.at(destination);
      auto [it, fresh] = analytic_by_epoch.try_emplace(epoch);
      if (fresh) {
        it->second =
            executors.at(epoch).RunRound(readings.values()).destination_values;
      }
      auto oracle_it = it->second.find(destination);
      if (oracle_it == it->second.end() ||
          !ValuesClose(value, oracle_it->second)) {
        std::ostringstream mismatch;
        mismatch << "r" << round << " d" << destination << " epoch " << epoch
                 << " got " << value;
        run.value_mismatches.push_back(mismatch.str());
      }
    }

    for (const auto& link : runtime.ledger().believed_failed_links()) {
      run.first_believed_link.try_emplace(link, round);
    }
    for (NodeId dead : runtime.ledger().believed_dead()) {
      run.first_believed_dead.try_emplace(dead, round);
    }

    if (round == total_rounds - 1) {
      run.final_values = result.data.destination_values;
      run.final_epochs = result.data.destination_epochs;
      run.final_incomplete = result.data.incomplete_destinations;
      run.final_epoch = runtime.base_epoch();
      run.final_pending_installs = result.pending_installs;
    }
  }
  run.believed_links = runtime.ledger().believed_failed_links();
  run.believed_dead = runtime.ledger().believed_dead();
  run.final_plan = runtime.plan();
  run.final_workload = runtime.current_workload();
  run.trace = trace.ToString();
  return run;
}

// The tentpole acceptance criterion: with NO oracle — the runtime never
// reads the schedule's event list — the network detects every persistent
// fault from its own traffic within threshold + 2 rounds, ships the patched
// plan over the same lossy links, and converges to exactly the values the
// oracle-driven PR 1 path computes; replays are byte-identical.
class SelfHealingDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SelfHealingDifferential, DetectsRepairsAndConvergesWithoutOracle) {
  const uint64_t seed = GetParam();
  Topology topology = MakeGreatDuckIslandLike();
  Workload workload = DefaultWorkload(topology, seed * 17 + 3);
  NodeId base = PickBaseStation(topology);
  FaultSchedule schedule = SelfHealSchedule(topology, workload, base, seed);
  const int scheduled_rounds = schedule.options().rounds;
  const int total_rounds = scheduled_rounds + 10;

  SelfHealRun run = RunSelfHealing(topology, workload, schedule, base,
                                   seed + 1000, total_rounds);

  // --- Detection: every persistent fault believed within K + 2 rounds.
  const int latency_budget = SelfHealingOptions{}.detector.suspicion_threshold + 2;
  for (const FaultEvent& event : schedule.events()) {
    if (event.type == FaultType::kTransientLink) continue;
    if (event.type == FaultType::kPersistentLink) {
      std::pair<NodeId, NodeId> link{std::min(event.a, event.b),
                                     std::max(event.a, event.b)};
      auto it = run.first_believed_link.find(link);
      ASSERT_NE(it, run.first_believed_link.end())
          << "seed " << seed << ": failed link " << link.first << "-"
          << link.second << " never detected";
      EXPECT_LE(it->second, event.round + latency_budget)
          << "seed " << seed << ": link " << link.first << "-" << link.second
          << " failed r" << event.round;
    } else {
      auto it = run.first_believed_dead.find(event.a);
      ASSERT_NE(it, run.first_believed_dead.end())
          << "seed " << seed << ": dead node " << event.a
          << " never detected";
      EXPECT_LE(it->second, event.round + latency_budget)
          << "seed " << seed << ": node " << event.a << " died r"
          << event.round;
    }
  }

  // --- No false beliefs: everything believed failed really failed.
  std::vector<NodeId> true_dead = schedule.DeadNodesThrough(total_rounds);
  std::vector<std::pair<NodeId, NodeId>> true_links =
      schedule.FailedLinksThrough(total_rounds);
  EXPECT_EQ(run.believed_dead, true_dead) << "seed " << seed;
  for (const auto& [lo, hi] : run.believed_links) {
    bool is_true_link = std::find(true_links.begin(), true_links.end(),
                                  std::make_pair(lo, hi)) != true_links.end();
    bool dead_incident =
        std::find(true_dead.begin(), true_dead.end(), lo) != true_dead.end() ||
        std::find(true_dead.begin(), true_dead.end(), hi) != true_dead.end();
    EXPECT_TRUE(is_true_link || dead_incident)
        << "seed " << seed << ": false suspicion " << lo << "-" << hi;
  }

  // --- Repair completed: dissemination fully acked, one epoch everywhere.
  EXPECT_EQ(run.final_pending_installs, 0) << "seed " << seed;
  EXPECT_TRUE(run.final_incomplete.empty())
      << "seed " << seed << ": destination " << run.final_incomplete.front()
      << " did not converge";
  for (const auto& [destination, epoch] : run.final_epochs) {
    EXPECT_EQ(epoch, run.final_epoch)
        << "seed " << seed << " destination " << destination;
  }

  // --- Mixed-epoch rounds never produced a wrong value.
  EXPECT_TRUE(run.value_mismatches.empty())
      << "seed " << seed << ": " << run.value_mismatches.front();

  // --- Corollary 1, per replan: every incremental replan touched only
  // edges inside its predicted perturbation set.
  EXPECT_TRUE(run.corollary_violations.empty())
      << "seed " << seed << ": " << run.corollary_violations.front();
  // --- Every replan's images equal a full encode of its plan.
  EXPECT_TRUE(run.image_mismatches.empty())
      << "seed " << seed << ": " << run.image_mismatches.front();
  EXPECT_TRUE(run.path_weight_mismatches.empty())
      << "seed " << seed << ": " << run.path_weight_mismatches.front();

  // --- Differential against the oracle-driven path: the self-healed plan
  // equals a from-scratch plan over the TRUE surviving topology (the PR 1
  // harness's end state), and the converged values match its executor.
  Workload survivors = SurvivorWorkload(workload, true_dead);
  Topology masked =
      Topology::WithFailures(topology, true_links, true_dead);
  PathSystem masked_paths(masked);
  GlobalPlan oracle_plan = BuildPlan(
      std::make_shared<MulticastForest>(masked_paths, survivors.tasks),
      survivors.functions);
  std::vector<std::string> divergence =
      FindPlanDivergence(*run.final_plan, oracle_plan);
  EXPECT_TRUE(divergence.empty())
      << "seed " << seed << ": " << divergence.front();
  EXPECT_TRUE(ValidatePlanConsistency(*run.final_plan)) << "seed " << seed;

  PlanExecutor oracle(std::make_shared<CompiledPlan>(CompiledPlan::Compile(
                          oracle_plan, survivors.functions)),
                      survivors.functions, EnergyModel{});
  ReadingGenerator final_readings(
      topology.node_count(),
      seed + 1000 + static_cast<uint64_t>(total_rounds - 1));
  RoundResult oracle_round = oracle.RunRound(final_readings.values());
  ASSERT_EQ(run.final_values.size(), oracle_round.destination_values.size())
      << "seed " << seed;
  for (const auto& [destination, value] : run.final_values) {
    auto it = oracle_round.destination_values.find(destination);
    ASSERT_NE(it, oracle_round.destination_values.end())
        << "seed " << seed << " destination " << destination;
    EXPECT_TRUE(ValuesClose(value, it->second))
        << "seed " << seed << " destination " << destination << ": " << value
        << " vs oracle " << it->second;
  }

  // --- Determinism: byte-identical replay.
  SelfHealRun replay = RunSelfHealing(topology, workload, schedule, base,
                                      seed + 1000, total_rounds);
  EXPECT_EQ(run.trace, replay.trace) << "seed " << seed;
  EXPECT_EQ(run.probe_transmissions, replay.probe_transmissions);
  EXPECT_EQ(run.control_hop_attempts, replay.control_hop_attempts);
}

INSTANTIATE_TEST_SUITE_P(TwentySeeds, SelfHealingDifferential,
                         ::testing::Range<uint64_t>(1, 21));

// --- Golden digest of seeded self-healing episodes ---

// FNV-1a-64 over 8-byte words.
class WordDigest {
 public:
  void Add(uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void AddDouble(double value) { Add(std::bit_cast<uint64_t>(value)); }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// Digest of one 30-round episode on 200 nodes: Gilbert–Elliott loss from a
// ChannelModel and persistent faults (deaths, link failures, a heal and a
// recovery) from a FaultSchedule. Per round it covers detector traffic and
// verdicts, replans, every destination's value and epoch, and the heard
// evidence; at the end, the detector's suspicions and the missed-round
// count of every directed link.
struct EpisodeDigest {
  uint64_t digest = 0;
  int new_suspicions = 0;
  int readmissions = 0;
  int replans = 0;
};

EpisodeDigest SelfHealingEpisodeDigest(uint64_t seed) {
  constexpr int kRounds = 30;
  const Topology topology = MakeScalingSeries({200}, 77).front();
  WorkloadSpec spec;
  spec.destination_count = 8;
  spec.sources_per_destination = 5;
  spec.seed = 77;
  const Workload workload = GenerateWorkload(topology, spec);
  const NodeId base = PickBaseStation(topology);
  std::vector<NodeId> protected_nodes = Destinations(workload);
  protected_nodes.push_back(base);

  FaultScheduleOptions fault_options;
  fault_options.rounds = kRounds;
  fault_options.transient_link_fraction = 0.0;
  fault_options.persistent_link_failures = 4;
  fault_options.node_deaths = 2;
  fault_options.link_heals = 1;
  fault_options.node_recoveries = 1;
  fault_options.recovery_delay_rounds = 8;
  fault_options.seed = seed;
  const FaultSchedule faults =
      FaultSchedule::Generate(topology, protected_nodes, fault_options);
  ChannelOptions channel_options;
  channel_options.good_loss = 0.05;
  channel_options.bad_loss = 0.6;
  channel_options.p_enter_bad = 0.03;
  channel_options.p_exit_bad = 0.3;
  channel_options.seed = seed + 100;
  const ChannelModel channel(channel_options);

  SelfHealingRuntime runtime(topology, workload, base);
  EpisodeDigest episode;
  WordDigest digest;
  for (int round = 0; round < kRounds; ++round) {
    ReadingGenerator readings(topology.node_count(),
                              seed * 1000 + static_cast<uint64_t>(round));
    LossyLinkModel physical;
    physical.attempt_delivers = [&faults, &channel, round](
                                    NodeId from, NodeId to, int attempt) {
      return faults.AttemptDelivers(round, from, to, attempt) &&
             channel.AttemptDelivers(round, from, to, attempt);
    };
    physical.node_alive = [&faults, round](NodeId n) {
      return faults.NodeAliveAt(round, n);
    };
    const SelfHealingRoundResult r =
        runtime.RunRound(round, readings.values(), physical);
    digest.Add(static_cast<uint64_t>(r.probe_transmissions));
    digest.Add(static_cast<uint64_t>(r.probe_confirmations));
    digest.Add(static_cast<uint64_t>(r.new_suspicions));
    digest.Add(static_cast<uint64_t>(r.readmissions));
    digest.Add(r.replanned);
    digest.Add(r.base_epoch);
    episode.new_suspicions += r.new_suspicions;
    episode.readmissions += r.readmissions;
    episode.replans += r.replanned ? 1 : 0;
    const std::map<NodeId, double> values(r.data.destination_values.begin(),
                                          r.data.destination_values.end());
    for (const auto& [destination, value] : values) {
      digest.Add(static_cast<uint64_t>(destination));
      digest.AddDouble(value);
      digest.Add(r.data.destination_epochs.at(destination));
    }
    digest.Add(r.data.heard.size());
    for (const auto& [from, to] : r.data.heard) {
      digest.Add(static_cast<uint64_t>(from));
      digest.Add(static_cast<uint64_t>(to));
    }
  }
  for (const SuspectedLink& s : runtime.detector().suspicions()) {
    digest.Add(static_cast<uint64_t>(s.monitor));
    digest.Add(static_cast<uint64_t>(s.neighbor));
    digest.Add(static_cast<uint64_t>(s.round));
  }
  for (NodeId monitor = 0; monitor < topology.node_count(); ++monitor) {
    for (NodeId neighbor : topology.neighbors(monitor)) {
      digest.Add(static_cast<uint64_t>(
          runtime.detector().missed_rounds(monitor, neighbor)));
    }
  }
  episode.digest = digest.value();
  return episode;
}

// Recorded before the channel hash hoist, the flat detector state and the
// sorted-vector heard evidence: those rewrites must not change one
// detection, replan or value.
TEST(SelfHealingGoldenTest, SeededEpisodesMatchGoldenDigests) {
  constexpr uint64_t kGoldenDigests[4] = {
      0x6917fb3f5425f0d7ULL, 0xbeff043f9d75a906ULL, 0x0c4bcabf8e8aaf42ULL,
      0xe22149b483aa1627ULL};
  EpisodeDigest total;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const EpisodeDigest episode = SelfHealingEpisodeDigest(seed);
    EXPECT_EQ(episode.digest, kGoldenDigests[seed - 1])
        << "seed " << seed << ": actual digest 0x" << std::hex
        << episode.digest;
    total.new_suspicions += episode.new_suspicions;
    total.readmissions += episode.readmissions;
    total.replans += episode.replans;
  }
  // The episodes exercise the whole loop, so the digests pin more than
  // quiet rounds.
  EXPECT_GT(total.new_suspicions, 0);
  EXPECT_GT(total.readmissions, 0);
  EXPECT_GT(total.replans, 0);
}

// --- Legacy-mode believed workload: tasks a death swallows whole ---

/// A 6x6 grid with 8-neighbour links: no single node death disconnects it.
/// The base station sits in a corner, away from every task below.
Topology LegacyGrid() { return MakeGrid(6, 6, 10.0, 15.0); }
constexpr NodeId kLegacyGridBase = 0;

Workload WorkloadOf(const std::vector<Task>& tasks) {
  Workload workload;
  for (const Task& task : tasks) {
    FunctionSpec spec;
    spec.kind = AggregateKind::kWeightedAverage;
    for (NodeId source : task.sources) spec.weights.emplace_back(source, 1.0);
    workload.tasks.push_back(task);
    workload.specs.push_back(std::move(spec));
  }
  workload.RebuildFunctions();
  return workload;
}

/// Runs 30 legacy-mode (not partition-aware) rounds over perfect links
/// with `dead` down from round 0 — enough for the base to believe exactly
/// those nodes dead and install the replanned epoch everywhere, which it
/// checks. Returns the last round's result.
SelfHealingRoundResult RunLegacyUntilHealed(SelfHealingRuntime& runtime,
                                            const Topology& topology,
                                            const std::vector<NodeId>& dead) {
  auto alive = [&dead](NodeId n) {
    return std::find(dead.begin(), dead.end(), n) == dead.end();
  };
  LossyLinkModel physical;
  physical.attempt_delivers = [alive](NodeId from, NodeId to, int) {
    return alive(from) && alive(to);
  };
  physical.node_alive = alive;
  SelfHealingRoundResult result;
  for (int round = 0; round < 30; ++round) {
    ReadingGenerator readings(topology.node_count(),
                              100 + static_cast<uint64_t>(round));
    result = runtime.RunRound(round, readings.values(), physical, nullptr);
  }
  EXPECT_EQ(runtime.ledger().believed_dead(), dead);
  EXPECT_EQ(result.pending_installs, 0);
  return result;
}

// A believed-dead destination drops its task; the legacy path used to keep
// it and die building the forest toward the unreachable destination.
TEST(LegacyBelievedWorkloadTest, DeadDestinationDropsItsTask) {
  const Topology topology = LegacyGrid();
  const std::vector<Task> tasks = {
      {14, {1, 7, 20}}, {21, {14, 28, 3}}, {29, {8, 15, 22}}};
  SelfHealingRuntime runtime(topology, WorkloadOf(tasks), kLegacyGridBase,
                             SelfHealingOptions{});

  SelfHealingRoundResult result = RunLegacyUntilHealed(runtime, topology, {14});

  EXPECT_EQ(runtime.current_workload().tasks,
            (std::vector<Task>{{21, {28, 3}}, {29, {8, 15, 22}}}));
  EXPECT_TRUE(result.data.incomplete_destinations.empty());
  EXPECT_FALSE(result.data.destination_values.contains(14));
  EXPECT_TRUE(result.data.destination_values.contains(21));
  EXPECT_TRUE(result.data.destination_values.contains(29));
}

// A task whose every source is believed dead is dropped; the legacy path
// used to remove its sources one by one and die on the last.
TEST(LegacyBelievedWorkloadTest, AllSourcesDeadDropsTheTask) {
  const Topology topology = LegacyGrid();
  const std::vector<Task> tasks = {{14, {20}}, {21, {20, 28}}, {29, {8, 15}}};
  SelfHealingRuntime runtime(topology, WorkloadOf(tasks), kLegacyGridBase,
                             SelfHealingOptions{});

  SelfHealingRoundResult result = RunLegacyUntilHealed(runtime, topology, {20});

  EXPECT_EQ(runtime.current_workload().tasks,
            (std::vector<Task>{{21, {28}}, {29, {8, 15}}}));
  EXPECT_TRUE(result.data.incomplete_destinations.empty());
  EXPECT_FALSE(result.data.destination_values.contains(14));
  EXPECT_TRUE(result.data.destination_values.contains(21));
}

// --- Failure detector unit tests ---

TEST(FailureDetectorTest, HeartbeatEvidenceSuppressesProbes) {
  Topology topology = MakeGrid(4, 1, 10.0, 15.0);
  FailureDetector detector(topology);
  // Every directed neighbor pair heard: no probes, no suspicions.
  std::vector<std::pair<NodeId, NodeId>> heard;
  for (NodeId n = 0; n < topology.node_count(); ++n) {
    for (NodeId m : topology.neighbors(n)) heard.emplace_back(n, m);
  }
  std::sort(heard.begin(), heard.end());
  auto report = detector.ObserveRound(
      0, heard, [](NodeId, NodeId, int) { return true; }, nullptr);
  EXPECT_EQ(report.probe_transmissions, 0);
  EXPECT_TRUE(report.new_suspicions.empty());
}

TEST(FailureDetectorTest, SilentNeighborConfirmedByProbeIsNotSuspected) {
  Topology topology = MakeGrid(4, 1, 10.0, 15.0);
  FailureDetector detector(topology);
  std::vector<std::pair<NodeId, NodeId>> silent;  // Nobody heard anybody.
  for (int round = 0; round < 10; ++round) {
    auto report = detector.ObserveRound(
        round, silent, [](NodeId, NodeId, int) { return true; }, nullptr);
    EXPECT_GT(report.probe_transmissions, 0);
    EXPECT_EQ(report.probe_confirmations, report.probe_transmissions / 2);
    EXPECT_TRUE(report.new_suspicions.empty());
  }
  EXPECT_TRUE(detector.suspicions().empty());
}

TEST(FailureDetectorTest, DeadLinkSuspectedAfterExactlyThresholdRounds) {
  Topology topology = MakeGrid(4, 1, 10.0, 15.0);
  DetectorOptions options;
  options.suspicion_threshold = 3;
  FailureDetector detector(topology, options);
  std::vector<std::pair<NodeId, NodeId>> silent;
  // Link 1-2 is down in both directions; everything else delivers.
  auto links = [](NodeId from, NodeId to, int) {
    return !((from == 1 && to == 2) || (from == 2 && to == 1));
  };
  for (int round = 0; round < options.suspicion_threshold - 1; ++round) {
    auto report = detector.ObserveRound(round, silent, links, nullptr);
    EXPECT_TRUE(report.new_suspicions.empty()) << "round " << round;
  }
  auto report = detector.ObserveRound(options.suspicion_threshold - 1,
                                      silent, links, nullptr);
  ASSERT_EQ(report.new_suspicions.size(), 2u);  // Both monitors raise.
  EXPECT_EQ(report.new_suspicions[0],
            (SuspectedLink{1, 2, options.suspicion_threshold - 1}));
  EXPECT_EQ(report.new_suspicions[1],
            (SuspectedLink{2, 1, options.suspicion_threshold - 1}));
  EXPECT_TRUE(detector.Suspects(1, 2));
  EXPECT_TRUE(detector.Suspects(2, 1));
  EXPECT_FALSE(detector.Suspects(0, 1));

  // Hysteresis: a single round of renewed evidence (transient glitch) only
  // moves the link into probation — it stays suspected until
  // `probation_rounds` consecutive evidence rounds complete.
  auto all_up = [](NodeId, NodeId, int) { return true; };
  auto after = detector.ObserveRound(options.suspicion_threshold, silent,
                                     all_up, nullptr);
  EXPECT_TRUE(after.new_suspicions.empty());
  EXPECT_TRUE(after.readmitted.empty());
  EXPECT_TRUE(detector.Suspects(1, 2));
  EXPECT_TRUE(detector.InProbation(1, 2));
}

TEST(FailureDetectorTest, IntermittentEvidenceResetsTheCounter) {
  Topology topology = MakeGrid(2, 1, 10.0, 15.0);
  FailureDetector detector(topology);  // Threshold 2.
  std::vector<std::pair<NodeId, NodeId>> silent;
  auto dead = [](NodeId, NodeId, int) { return false; };
  auto up = [](NodeId, NodeId, int) { return true; };
  detector.ObserveRound(0, silent, dead, nullptr);
  EXPECT_EQ(detector.missed_rounds(0, 1), 1);
  detector.ObserveRound(1, silent, up, nullptr);  // Probe succeeds.
  EXPECT_EQ(detector.missed_rounds(0, 1), 0);
  detector.ObserveRound(2, silent, dead, nullptr);
  EXPECT_TRUE(detector.suspicions().empty());  // 1 < threshold again.
}

// revision() moves in exactly the rounds whose suspected links differ from
// the round before, for raises and readmissions alike, and stays put while
// links only serve probation or count missed rounds.
TEST(FailureDetectorTest, RevisionMovesExactlyWhenSuspicionsChange) {
  const Topology topology =
      MakeUniformRandom(60, Area{150.0, 150.0}, 40.0, 7);
  FailureDetector detector(topology);
  auto links_of = [](const std::vector<SuspectedLink>& suspicions) {
    std::vector<std::pair<NodeId, NodeId>> links;
    for (const SuspectedLink& s : suspicions) {
      links.emplace_back(s.monitor, s.neighbor);
    }
    return links;
  };
  const std::vector<std::pair<NodeId, NodeId>> silent;
  std::vector<std::pair<NodeId, NodeId>> before;
  int revision = detector.revision();
  int raise_rounds = 0;
  int readmit_rounds = 0;
  int unchanged_probation_rounds = 0;
  for (int round = 0; round < 120; ++round) {
    // A quarter of the links are down in each block of five rounds, long
    // enough to be suspected, serve probation and be readmitted.
    auto delivers = [round](NodeId from, NodeId to, int) {
      const uint64_t link = static_cast<uint64_t>(std::min(from, to)) << 32 |
                            static_cast<uint64_t>(std::max(from, to));
      return SplitMix64(link ^ static_cast<uint64_t>(round / 5)) % 4 != 0;
    };
    const FailureDetector::RoundReport report =
        detector.ObserveRound(round, silent, delivers, nullptr);
    const std::vector<std::pair<NodeId, NodeId>> after =
        links_of(detector.suspicions());
    EXPECT_EQ(detector.revision() != revision, after != before)
        << "round " << round;
    if (!report.new_suspicions.empty()) ++raise_rounds;
    if (!report.readmitted.empty()) ++readmit_rounds;
    if (after == before && detector.probation_link_count() > 0) {
      ++unchanged_probation_rounds;
    }
    revision = detector.revision();
    before = after;
  }
  EXPECT_GT(raise_rounds, 0);
  EXPECT_GT(readmit_rounds, 0);
  EXPECT_GT(unchanged_probation_rounds, 0);
}

TEST(FailureDetectorTest, MissedRoundsIsZeroForNonNeighbors) {
  Topology topology = MakeGrid(3, 1, 10.0, 15.0);  // Path 0 - 1 - 2.
  FailureDetector detector(topology);
  std::vector<std::pair<NodeId, NodeId>> silent;
  auto dead = [](NodeId, NodeId, int) { return false; };
  detector.ObserveRound(0, silent, dead, nullptr);
  EXPECT_EQ(detector.missed_rounds(0, 1), 1);
  EXPECT_EQ(detector.missed_rounds(2, 1), 1);
  EXPECT_EQ(detector.missed_rounds(0, 2), 0);
  EXPECT_EQ(detector.missed_rounds(1, 1), 0);
  EXPECT_EQ(detector.missed_rounds(-1, 0), 0);
  EXPECT_EQ(detector.missed_rounds(3, 0), 0);
}

TEST(FailureDetectorTest, RejectsUnsortedOrDuplicateHeardEvidence) {
  Topology topology = MakeGrid(3, 1, 10.0, 15.0);
  FailureDetector detector(topology);
  auto up = [](NodeId, NodeId, int) { return true; };
  const std::vector<std::pair<NodeId, NodeId>> unsorted = {{1, 0}, {0, 1}};
  EXPECT_DEATH(detector.ObserveRound(0, unsorted, up, nullptr), "sorted");
  const std::vector<std::pair<NodeId, NodeId>> duplicate = {{0, 1}, {0, 1}};
  EXPECT_DEATH(detector.ObserveRound(0, duplicate, up, nullptr), "sorted");
}

TEST(FailureDetectorTest, DeadMonitorsDoNotMonitor) {
  Topology topology = MakeGrid(3, 1, 10.0, 15.0);
  FailureDetector detector(topology);
  std::vector<std::pair<NodeId, NodeId>> silent;
  auto dead_node_2 = [](NodeId from, NodeId to, int) {
    return from != 2 && to != 2;
  };
  auto active = [](NodeId n) { return n != 2; };
  for (int round = 0; round < 4; ++round) {
    detector.ObserveRound(round, silent, dead_node_2, active);
  }
  // Node 1 suspects its link to dead node 2; node 2 itself raised nothing.
  EXPECT_TRUE(detector.Suspects(1, 2));
  for (const SuspectedLink& s : detector.suspicions()) {
    EXPECT_NE(s.monitor, 2);
  }
}

// Digest of 300 detector rounds on a seeded 200-node topology: random
// heard sets (with pairs that are not topology links), sleeping monitors,
// links that go down in 16-round windows and a pure-hash channel. The
// round argument repeats once and goes backwards once. Per round it covers
// the report, `suspicions()` and every directed link's missed count,
// probation, required probation and flap count.
struct DetectorDigest {
  uint64_t digest = 0;
  int new_suspicions = 0;
  int readmissions = 0;
  int max_flap_count = 0;
};

DetectorDigest DetectorRoundsDigest(const DetectorOptions& options) {
  constexpr int kRounds = 300;
  const Topology topology =
      MakeUniformRandom(200, Area{300.0, 300.0}, 40.0, 23);
  const NodeId n = topology.node_count();
  auto hash = [](uint64_t a, uint64_t b, uint64_t c) {
    return SplitMix64(SplitMix64(SplitMix64(a) ^ b) ^ c);
  };
  int round = 0;
  auto node_active = [&round, &hash](NodeId node) {
    return hash(1, static_cast<uint64_t>(node), round / 4) % 10 != 0;
  };
  auto link_up = [&round, &hash](NodeId from, NodeId to) {
    const uint64_t link = static_cast<uint64_t>(std::min(from, to)) << 32 |
                          static_cast<uint64_t>(std::max(from, to));
    return (hash(2, link, 0) + round / 16) % 5 != 0;
  };
  const FailureDetector::AttemptDelivers attempt_delivers =
      [&](NodeId from, NodeId to, int attempt) {
        if (!node_active(from) || !node_active(to) || !link_up(from, to)) {
          return false;
        }
        const uint64_t key = static_cast<uint64_t>(from) << 32 |
                             static_cast<uint64_t>(to);
        return hash(3, key, static_cast<uint64_t>(round) << 16 | attempt) %
                   10 < 6;
      };

  FailureDetector detector(topology, options);
  DetectorDigest result;
  WordDigest digest;
  Rng rng(4242);
  for (round = 0; round < kRounds; ++round) {
    std::vector<std::pair<NodeId, NodeId>> heard;
    for (NodeId to = 0; to < n; ++to) {
      for (NodeId from : topology.neighbors(to)) {
        // Every ninth link is heard only in rounds 0-2, so evidence marks
        // that outlived the detector's 255-round mark cycle would show.
        const bool quiet =
            hash(4, static_cast<uint64_t>(from) << 32 | to, 0) % 9 == 0;
        if (quiet ? round < 3 : rng.Bernoulli(0.3)) {
          heard.emplace_back(from, to);
        }
      }
    }
    for (int extra = 0; extra < 20; ++extra) {
      // Pairs that are not topology links (self pairs, strangers, ids
      // outside the topology) carry no evidence.
      const NodeId from = static_cast<NodeId>(rng.UniformRange(-1, n));
      const NodeId to = static_cast<NodeId>(rng.UniformRange(-1, n));
      const bool in_range = from >= 0 && from < n && to >= 0 && to < n;
      if (!in_range || !topology.AreNeighbors(from, to)) {
        heard.emplace_back(from, to);
      }
    }
    std::sort(heard.begin(), heard.end());
    heard.erase(std::unique(heard.begin(), heard.end()), heard.end());

    int round_argument = round;
    if (round == 120) round_argument = 119;  // Repeated.
    if (round == 200) round_argument = 150;  // Backwards.
    const FailureDetector::RoundReport report = detector.ObserveRound(
        round_argument, heard, attempt_delivers, node_active);
    result.new_suspicions += static_cast<int>(report.new_suspicions.size());
    result.readmissions += static_cast<int>(report.readmitted.size());
    digest.Add(static_cast<uint64_t>(report.probe_transmissions));
    digest.Add(static_cast<uint64_t>(report.probe_confirmations));
    for (const auto* links : {&report.new_suspicions, &report.readmitted}) {
      digest.Add(links->size());
      for (const SuspectedLink& s : *links) {
        digest.Add(static_cast<uint64_t>(s.monitor));
        digest.Add(static_cast<uint64_t>(s.neighbor));
        digest.Add(static_cast<uint64_t>(s.round));
      }
    }
    const std::vector<SuspectedLink> suspicions = detector.suspicions();
    digest.Add(suspicions.size());
    for (const SuspectedLink& s : suspicions) {
      digest.Add(static_cast<uint64_t>(s.monitor));
      digest.Add(static_cast<uint64_t>(s.neighbor));
      digest.Add(static_cast<uint64_t>(s.round));
    }
    digest.Add(static_cast<uint64_t>(detector.probation_link_count()));
    for (NodeId monitor = 0; monitor < n; ++monitor) {
      for (NodeId neighbor : topology.neighbors(monitor)) {
        digest.Add(static_cast<uint64_t>(
            detector.missed_rounds(monitor, neighbor)));
        digest.Add(detector.InProbation(monitor, neighbor));
        digest.Add(static_cast<uint64_t>(
            detector.required_probation(monitor, neighbor)));
        const int flaps = detector.flap_count(monitor, neighbor);
        digest.Add(static_cast<uint64_t>(flaps));
        result.max_flap_count = std::max(result.max_flap_count, flaps);
      }
    }
  }
  result.digest = digest.value();
  return result;
}

// Recorded before the per-slot evidence marks and suspicion flags: the flat
// round must not change one report or accessor.
TEST(FailureDetectorTest, ReportsMatchGoldenOverRandomRounds) {
  DetectorOptions plain;
  DetectorOptions damped;
  damped.probation_backoff_factor = 2;
  damped.max_probation_rounds = 8;
  damped.flap_forgiveness_rounds = 40;
  const DetectorDigest plain_run = DetectorRoundsDigest(plain);
  const DetectorDigest damped_run = DetectorRoundsDigest(damped);
  EXPECT_EQ(plain_run.digest, 0xabb0149cc1948567ULL)
      << "actual digest 0x" << std::hex << plain_run.digest;
  EXPECT_EQ(damped_run.digest, 0x5fb684fbe3b8501dULL)
      << "actual digest 0x" << std::hex << damped_run.digest;
  // The rounds exercise the whole state machine, so the digests pin more
  // than missed counters.
  for (const DetectorDigest& run : {plain_run, damped_run}) {
    EXPECT_GT(run.new_suspicions, 0);
    EXPECT_GT(run.readmissions, 0);
  }
  EXPECT_EQ(plain_run.max_flap_count, 0);
  EXPECT_GT(damped_run.max_flap_count, 1);
}

// --- Suspicion ledger unit tests ---

TEST(SuspicionLedgerTest, InfersDeathWhenAllLinksOfANodeAreSuspected) {
  Topology topology = MakeGrid(5, 1, 10.0, 15.0);  // Line 0-1-2-3-4.
  SuspicionLedger ledger(&topology, 0);
  EXPECT_EQ(ledger.revision(), 0);

  ASSERT_TRUE(ledger.RecordSuspicion(2, 3));
  EXPECT_EQ(ledger.revision(), 1);
  // Nodes 3 and 4 are now unreachable from base 0: believed dead.
  EXPECT_EQ(ledger.believed_dead(), (std::vector<NodeId>{3, 4}));
  ASSERT_EQ(ledger.believed_failed_links().size(), 1u);
  EXPECT_EQ(ledger.believed_failed_links().front(),
            (std::pair<NodeId, NodeId>{2, 3}));

  // Duplicate (and the mirrored direction) are no-ops.
  EXPECT_FALSE(ledger.RecordSuspicion(3, 2));
  EXPECT_FALSE(ledger.RecordSuspicion(2, 3));
  EXPECT_EQ(ledger.revision(), 1);

  // The planning graph reaches exactly the nodes believed alive.
  EXPECT_EQ(ledger.belief_graph().HopDistancesFrom(0),
            (std::vector<int>{0, 1, 2, -1, -1}));
}

TEST(SuspicionLedgerTest, InteriorLinkFailureKillsNoNodes) {
  Topology topology = MakeGrid(3, 3, 10.0, 15.0);
  SuspicionLedger ledger(&topology, 0);
  ASSERT_TRUE(ledger.RecordSuspicion(0, 1));
  // The grid remains connected around the failed link.
  EXPECT_TRUE(ledger.believed_dead().empty());
  EXPECT_TRUE(ledger.belief_graph().IsConnected());
}

// Checks every accessor of `ledger` against a masked-copy BFS over the
// deployment minus `links` (sorted): the unreachable nodes are dead, or in
// partition-aware mode dead when isolated and partitioned otherwise.
::testing::AssertionResult LedgerMatchesMaskedBfs(
    const SuspicionLedger& ledger, const Topology& topology, NodeId base,
    const std::vector<std::pair<NodeId, NodeId>>& links) {
  using NodeBelief = SuspicionLedger::NodeBelief;
  const Topology masked = Topology::WithFailures(topology, links, {});
  const std::vector<int> hops = masked.HopDistancesFrom(base);
  std::vector<NodeId> dead;
  std::vector<NodeId> partitioned;
  std::vector<bool> in_counted_region(topology.node_count(), false);
  int regions = 0;
  for (NodeId n = 0; n < topology.node_count(); ++n) {
    if (hops[n] >= 0) continue;
    if (!ledger.partition_aware() || masked.neighbors(n).empty()) {
      dead.push_back(n);
      continue;
    }
    partitioned.push_back(n);
    if (in_counted_region[n]) continue;
    ++regions;
    const std::vector<int> region = masked.HopDistancesFrom(n);
    for (NodeId m = 0; m < topology.node_count(); ++m) {
      if (region[m] >= 0) in_counted_region[m] = true;
    }
  }
  if (ledger.believed_failed_links() != links) {
    return ::testing::AssertionFailure() << "believed_failed_links differ";
  }
  if (ledger.believed_dead() != dead) {
    return ::testing::AssertionFailure() << "believed_dead differs";
  }
  if (ledger.believed_partitioned() != partitioned) {
    return ::testing::AssertionFailure() << "believed_partitioned differs";
  }
  if (ledger.partition_region_count() != regions) {
    return ::testing::AssertionFailure()
           << "partition_region_count " << ledger.partition_region_count()
           << ", expected " << regions;
  }
  for (NodeId n = 0; n < topology.node_count(); ++n) {
    const NodeBelief expected =
        hops[n] >= 0 ? NodeBelief::kAlive
        : std::binary_search(dead.begin(), dead.end(), n)
            ? NodeBelief::kDead
            : NodeBelief::kPartitioned;
    if (ledger.belief(n) != expected) {
      return ::testing::AssertionFailure() << "belief of node " << n;
    }
    if (!std::ranges::equal(ledger.belief_graph().neighbors(n),
                            masked.neighbors(n))) {
      return ::testing::AssertionFailure()
             << "belief graph neighbors of node " << n;
    }
  }
  return ::testing::AssertionSuccess();
}

// The ledger derives its beliefs lazily; every read after every single
// record, readmission and mode switch must match the masked-copy BFS of
// the links reported so far.
TEST(SuspicionLedgerTest, DeadSetMatchesMaskedBfsReference) {
  Topology topology = MakeUniformRandom(200, Area{300.0, 300.0}, 40.0, 17);
  const NodeId base = 0;
  std::vector<std::pair<NodeId, NodeId>> all_links;
  for (NodeId u = 0; u < topology.node_count(); ++u) {
    for (NodeId w : topology.neighbors(u)) {
      if (u < w) all_links.emplace_back(u, w);
    }
  }
  std::vector<std::vector<std::pair<NodeId, NodeId>>> link_sets;
  Rng rng(0x1ed9e5);
  for (int trial = 0; trial < 12; ++trial) {
    const double share = 0.02 * (trial + 1);
    std::vector<std::pair<NodeId, NodeId>> links;
    for (const auto& link : all_links) {
      if (rng.Bernoulli(share)) links.push_back(link);
    }
    link_sets.push_back(std::move(links));
  }
  // Every link of one node.
  const NodeId lonely = 123;
  std::vector<std::pair<NodeId, NodeId>> isolate;
  for (NodeId w : topology.neighbors(lonely)) {
    isolate.emplace_back(std::min(lonely, w), std::max(lonely, w));
  }
  link_sets.push_back(isolate);
  // A cut set: every link crossing x = 150 m.
  std::vector<std::pair<NodeId, NodeId>> cut;
  for (const auto& [a, b] : all_links) {
    if ((topology.position(a).x < 150.0) != (topology.position(b).x < 150.0)) {
      cut.emplace_back(a, b);
    }
  }
  link_sets.push_back(cut);

  for (size_t k = 0; k < link_sets.size(); ++k) {
    SCOPED_TRACE(::testing::Message() << "link set " << k);
    SuspicionLedger ledger(&topology, base);
    std::vector<std::pair<NodeId, NodeId>> reported;
    int revision = 0;
    // Reads everything in the current mode, switches mode, reads again.
    auto check_both_modes = [&](const char* step, size_t i) {
      ASSERT_EQ(ledger.revision(), revision) << step << " " << i;
      ASSERT_TRUE(LedgerMatchesMaskedBfs(ledger, topology, base, reported))
          << step << " " << i;
      ledger.set_partition_aware(!ledger.partition_aware());
      ASSERT_EQ(ledger.revision(), revision) << step << " " << i;
      ASSERT_TRUE(LedgerMatchesMaskedBfs(ledger, topology, base, reported))
          << step << " " << i << " after the mode switch";
    };
    ASSERT_NO_FATAL_FAILURE(check_both_modes("start", 0));
    for (size_t i = 0; i < link_sets[k].size(); ++i) {
      const auto [a, b] = link_sets[k][i];
      ASSERT_TRUE(ledger.RecordSuspicion(b, a));
      ++revision;
      reported.insert(std::lower_bound(reported.begin(), reported.end(),
                                       std::make_pair(a, b)),
                      {a, b});
      ASSERT_NO_FATAL_FAILURE(check_both_modes("record", i));
    }
    ledger.set_partition_aware(false);
    std::vector<int> distance = Topology::WithFailures(topology, reported, {})
                                    .HopDistancesFrom(base);
    std::vector<NodeId> expected;
    for (NodeId n = 0; n < topology.node_count(); ++n) {
      if (distance[n] < 0) expected.push_back(n);
    }
    EXPECT_EQ(ledger.believed_dead(), expected);
    if (k + 2 == link_sets.size()) {
      EXPECT_EQ(ledger.believed_dead(), (std::vector<NodeId>{lonely}));
    }
    if (k + 1 == link_sets.size()) {
      EXPECT_GT(expected.size(), 1u);
    }
    // Partition-aware mode splits the same unreachable set into dead and
    // partitioned nodes.
    ledger.set_partition_aware(true);
    std::vector<NodeId> unreachable = ledger.believed_dead();
    unreachable.insert(unreachable.end(),
                       ledger.believed_partitioned().begin(),
                       ledger.believed_partitioned().end());
    std::sort(unreachable.begin(), unreachable.end());
    EXPECT_EQ(unreachable, expected);
    // Readmitting every link, one at a time, restores a dead-free belief.
    for (size_t i = 0; i < link_sets[k].size(); ++i) {
      const auto [a, b] = link_sets[k][i];
      ASSERT_TRUE(ledger.RecordReadmission(a, b));
      ++revision;
      reported.erase(std::lower_bound(reported.begin(), reported.end(),
                                      std::make_pair(a, b)));
      ASSERT_NO_FATAL_FAILURE(check_both_modes("readmission", i));
    }
    EXPECT_TRUE(ledger.believed_dead().empty());
    EXPECT_TRUE(ledger.believed_partitioned().empty());
  }
}

// --- Epoch gate and safe-transition unit tests ---

// A receiver on a newer plan epoch must drop (not merge) packets from
// senders still on the old epoch, while still acking them.
TEST(EpochGateTest, MixedEpochRoundNeverMergesAcrossPlans) {
  Topology topology = MakeGrid(6, 1, 10.0, 15.0);
  Workload workload;
  workload.tasks = {Task{5, {0, 1, 2}}};
  FunctionSpec spec;
  spec.kind = AggregateKind::kWeightedSum;
  spec.weights = {{0, 1.0}, {1, 2.0}, {2, 3.0}};
  workload.specs = {spec};
  workload.RebuildFunctions();

  PathSystem paths(topology);
  GlobalPlan plan = BuildPlan(
      std::make_shared<MulticastForest>(paths, workload.tasks),
      workload.functions);
  CompiledPlan epoch0 = CompiledPlan::Compile(plan, workload.functions);
  CompiledPlan epoch1 = CompiledPlan::Compile(
      plan, workload.functions, MergePolicy::kGreedyMergePerEdge, 1);
  RuntimeNetwork network(epoch0, workload.functions);

  // Move only the destination to epoch 1; all senders stay on epoch 0.
  std::vector<std::vector<uint8_t>> epoch1_images =
      EncodeAllNodeStates(epoch1, workload.functions);
  network.InstallNodeImage(5, epoch1_images[5], epoch1);
  EXPECT_EQ(network.plan_epoch(5), 1u);
  EXPECT_EQ(network.plan_epoch(0), 0u);

  LossyLinkModel links;
  links.attempt_delivers = [](NodeId, NodeId, int) { return true; };
  ReadingGenerator readings(topology.node_count(), 5);
  RuntimeNetwork::LossyResult lossy =
      network.RunRoundLossy(readings.values(), links);

  // The old-epoch packet reaching node 5 is rejected whole: the round ends
  // with the destination stalled (parked), not with a cross-plan value.
  EXPECT_GT(lossy.epoch_rejected, 0);
  EXPECT_TRUE(lossy.destination_values.empty());
  ASSERT_EQ(lossy.incomplete_destinations.size(), 1u);
  EXPECT_EQ(lossy.incomplete_destinations.front(), 5);
  // The epoch rejection was still acked: no sender kept retrying into it.
  EXPECT_EQ(lossy.messages_abandoned, 0);
}

TEST(EpochGateTest, InstallImageDropsOldEpochRoundState) {
  Topology topology = MakeGrid(6, 1, 10.0, 15.0);
  Workload workload;
  workload.tasks = {Task{5, {0, 1, 2}}};
  FunctionSpec spec;
  spec.kind = AggregateKind::kWeightedSum;
  spec.weights = {{0, 1.0}, {1, 2.0}, {2, 3.0}};
  workload.specs = {spec};
  workload.RebuildFunctions();
  PathSystem paths(topology);
  GlobalPlan plan = BuildPlan(
      std::make_shared<MulticastForest>(paths, workload.tasks),
      workload.functions);
  CompiledPlan epoch0 = CompiledPlan::Compile(plan, workload.functions);
  CompiledPlan epoch1 = CompiledPlan::Compile(
      plan, workload.functions, MergePolicy::kGreedyMergePerEdge, 1);
  std::vector<std::vector<uint8_t>> images0 =
      EncodeAllNodeStates(epoch0, workload.functions);
  std::vector<std::vector<uint8_t>> images1 =
      EncodeAllNodeStates(epoch1, workload.functions);

  NodeRuntime node(4, images0[4]);
  node.StartRound(1.5);
  EXPECT_FALSE(node.AccumulatorStatuses().empty());

  // Same-epoch reinstall: a no-op (idempotent dissemination duplicate).
  node.InstallImage(images0[4]);
  EXPECT_FALSE(node.AccumulatorStatuses().empty());

  // New-epoch install: every old-epoch partial is parked (dropped).
  node.InstallImage(images1[4]);
  EXPECT_EQ(node.plan_epoch(), 1u);
  EXPECT_TRUE(node.AccumulatorStatuses().empty());
  EXPECT_FALSE(node.FinalValue().has_value());
}

TEST(SafeTransitionTest, HazardsOnlyWhenContentChangesUnderOneEpoch) {
  Topology topology = MakeGreatDuckIslandLike();
  Workload workload = DefaultWorkload(topology, 9);
  PathSystem paths(topology);
  GlobalPlan plan = BuildPlan(
      std::make_shared<MulticastForest>(paths, workload.tasks),
      workload.functions);
  CompiledPlan epoch0 = CompiledPlan::Compile(plan, workload.functions);
  CompiledPlan epoch1 = CompiledPlan::Compile(
      plan, workload.functions, MergePolicy::kGreedyMergePerEdge, 1);

  // Same tables, new epoch: trivially safe.
  EXPECT_TRUE(FindEpochTransitionHazards(epoch0, workload.functions, epoch1,
                                         workload.functions)
                  .empty());
  // Identical plans under one epoch: safe (nothing changed).
  EXPECT_TRUE(FindEpochTransitionHazards(epoch0, workload.functions, epoch0,
                                         workload.functions)
                  .empty());

  // A changed plan under the SAME epoch is the unsafe case the protocol
  // must never produce.
  NodeId victim = workload.tasks.front().sources.front();
  Workload survivors = WithSourceRemoved(
      workload, victim, workload.tasks.front().destination);
  GlobalPlan changed = BuildPlan(
      std::make_shared<MulticastForest>(paths, survivors.tasks),
      survivors.functions);
  CompiledPlan changed0 = CompiledPlan::Compile(changed, survivors.functions);
  EXPECT_FALSE(FindEpochTransitionHazards(epoch0, workload.functions,
                                          changed0, survivors.functions)
                   .empty());
}

// Epoch-prefix serialization: bumping the epoch re-stamps the image without
// perturbing its contents, so the incremental diff stays Corollary 1-small.
TEST(EpochImageTest, EpochBumpKeepsImageContentsEqual) {
  Topology topology = MakeGreatDuckIslandLike();
  Workload workload = DefaultWorkload(topology, 13);
  PathSystem paths(topology);
  GlobalPlan plan = BuildPlan(
      std::make_shared<MulticastForest>(paths, workload.tasks),
      workload.functions);
  CompiledPlan epoch0 = CompiledPlan::Compile(plan, workload.functions);
  CompiledPlan epoch7 = CompiledPlan::Compile(
      plan, workload.functions, MergePolicy::kGreedyMergePerEdge, 7);
  std::vector<std::vector<uint8_t>> images0 =
      EncodeAllNodeStates(epoch0, workload.functions);
  std::vector<std::vector<uint8_t>> images7 =
      EncodeAllNodeStates(epoch7, workload.functions);

  ASSERT_EQ(images0.size(), images7.size());
  for (size_t n = 0; n < images0.size(); ++n) {
    EXPECT_TRUE(ImageContentsEqual(images0[n], images7[n])) << "node " << n;
    DecodedNodeState decoded = DecodeNodeState(images7[n]);
    EXPECT_EQ(decoded.plan_epoch, 7u) << "node " << n;
  }
  // Epoch-only difference ships NO images — every participant gets a bump.
  for (const NodeImageDelta& delta : DiffNodeImages(images0, images7)) {
    EXPECT_FALSE(delta.ship_image) << "node " << delta.node;
  }
}

// --- Control-message codec round trips ---

TEST(ControlWireTest, SuspicionReportRoundTrip) {
  wire::SuspicionReport report;
  report.monitor = 17;
  report.entries = {{3, 4}, {21, 6}};
  std::vector<uint8_t> bytes = wire::EncodeSuspicionReport(report);
  auto decoded = wire::TryDecodeSuspicionReport(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, report);
  // Truncation is rejected, not CHECK-crashed (network input).
  bytes.pop_back();
  EXPECT_FALSE(wire::TryDecodeSuspicionReport(bytes).has_value());
  EXPECT_FALSE(wire::TryDecodeEpochBump(bytes).has_value());
}

TEST(ControlWireTest, EpochBumpIsExactlyFiveBytesAndRoundTrips) {
  std::vector<uint8_t> bytes = wire::EncodeEpochBump(0xdeadbeef);
  EXPECT_EQ(bytes.size(), static_cast<size_t>(kEpochBumpPayloadBytes));
  auto decoded = wire::TryDecodeEpochBump(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, 0xdeadbeefu);
}

TEST(ControlWireTest, InstallAckRoundTrip) {
  std::vector<uint8_t> bytes = wire::EncodeInstallAck(42, 9);
  auto decoded = wire::TryDecodeInstallAck(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->first, 42);
  EXPECT_EQ(decoded->second, 9u);
  EXPECT_FALSE(wire::TryDecodeInstallAck(wire::EncodeEpochBump(1)).has_value());
}

}  // namespace
}  // namespace m2m
