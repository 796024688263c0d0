#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fault_test_util.h"
#include "lifecycle/admission.h"
#include "mac/tdma_executor.h"
#include "plan/consistency.h"
#include "plan/node_tables.h"
#include "plan/planner.h"
#include "plan/tdma.h"
#include "routing/lifetime_forest.h"
#include "routing/multicast.h"
#include "routing/path_system.h"
#include "runtime/network.h"
#include "sim/base_station.h"
#include "sim/battery.h"
#include "sim/energy_model.h"
#include "sim/executor.h"
#include "sim/fault_schedule.h"
#include "sim/physical_layer.h"
#include "sim/readings.h"
#include "sim/self_healing.h"
#include "topology/generator.h"
#include "topology/topology.h"
#include "workload/workload.h"

namespace m2m {
namespace {

using fault_test::DefaultWorkload;
using fault_test::Destinations;
using fault_test::ProtectedNodes;
using fault_test::ValuesClose;

CompiledPlan CompileInitialPlan(const Topology& topology,
                                const Workload& workload) {
  // Mirrors SelfHealingRuntime's constructor exactly, so the analytic
  // drains computed here equal the runtime's initial predicted drain.
  GlobalPlan plan = BuildPlan(
      std::make_shared<MulticastForest>(PathSystem(topology), workload.tasks),
      workload.functions);
  return CompiledPlan::Compile(plan, workload.functions,
                               MergePolicy::kGreedyMergePerEdge,
                               /*plan_epoch=*/0);
}

// --- BatteryLedger unit tests -------------------------------------------

TEST(BatteryLedgerTest, TracksDrainSeparatelyAndClampsResidual) {
  BatteryOptions options;
  options.initial_charge_mj = 10.0;
  BatteryLedger ledger(3, options);
  EXPECT_EQ(ledger.node_count(), 3);
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_EQ(ledger.initial_mj(n), 10.0);
    EXPECT_EQ(ledger.drained_mj(n), 0.0);
    EXPECT_EQ(ledger.residual_fraction(n), 1.0);
    EXPECT_FALSE(ledger.depleted(n));
  }

  // One charged round: drain equals the charge bit-for-bit (0 + x == x).
  ledger.ChargeRound({4.0, 0.0, 12.0});
  EXPECT_EQ(ledger.drained_mj(0), 4.0);
  EXPECT_EQ(ledger.residual_mj(0), 6.0);
  EXPECT_EQ(ledger.drained_mj(1), 0.0);
  // Over-drain clamps residual at zero and marks the node depleted.
  EXPECT_EQ(ledger.residual_mj(2), 0.0);
  EXPECT_EQ(ledger.residual_fraction(2), 0.0);
  EXPECT_TRUE(ledger.depleted(2));
  EXPECT_EQ(ledger.depleted_nodes(), (std::vector<NodeId>{2}));
  EXPECT_EQ(ledger.rounds_charged(), 1);

  ledger.ChargeRound({4.0, 0.0, 1.0});
  EXPECT_EQ(ledger.drained_mj(0), 8.0);
  ledger.ChargeRound({4.0, 0.0, 0.0});
  EXPECT_TRUE(ledger.depleted(0));
  EXPECT_EQ(ledger.residual_mj(0), 0.0);
  EXPECT_EQ(ledger.rounds_charged(), 3);
}

TEST(BatteryLedgerTest, ImmortalNodesNeverDrainOrDeplete) {
  BatteryOptions options;
  options.initial_charge_mj = 1.0;
  options.immortal_nodes = {1};
  BatteryLedger ledger(2, options);
  for (int round = 0; round < 5; ++round) ledger.ChargeRound({5.0, 5.0});
  EXPECT_TRUE(ledger.depleted(0));
  EXPECT_TRUE(ledger.immortal(1));
  EXPECT_FALSE(ledger.depleted(1));
  EXPECT_EQ(ledger.drained_mj(1), 0.0);
  EXPECT_EQ(ledger.residual_fraction(1), 1.0);
}

TEST(BatteryLedgerTest, IdleFloorAppliesOnlyWhileAlive) {
  BatteryOptions options;
  options.initial_charge_mj_per_node = {3.0, 100.0};
  options.idle_mj_per_round = 1.0;
  BatteryLedger ledger(2, options);
  ledger.ChargeRound({2.0, 0.0});  // Node 0: 2 radio + 1 idle = depleted.
  EXPECT_TRUE(ledger.depleted(0));
  EXPECT_EQ(ledger.drained_mj(1), 1.0);
  // A node depleted at round start pays no further idle drain.
  ledger.ChargeRound({0.0, 0.0});
  EXPECT_EQ(ledger.drained_mj(0), 3.0);
  EXPECT_EQ(ledger.drained_mj(1), 2.0);
}

// --- Predicted vs executed reconciliation (exact) -----------------------

TEST(EnergyReconciliationTest, ExecutedLosslessRoundMatchesPredictionExactly) {
  Topology topology = MakeGreatDuckIslandLike();
  Workload workload = DefaultWorkload(topology, 12);
  auto compiled =
      std::make_shared<CompiledPlan>(CompileInitialPlan(topology, workload));
  const EnergyModel model;
  PlanExecutor executor(compiled, workload.functions, model);
  BatteryLedger ledger(topology.node_count());
  executor.set_battery(&ledger);

  ReadingGenerator readings(topology.node_count(), 99);
  executor.RunRound(readings.values());
  ASSERT_EQ(ledger.rounds_charged(), 1);

  const std::vector<double> predicted = CompiledRoundEnergyMj(*compiled, model);
  for (NodeId n = 0; n < topology.node_count(); ++n) {
    // Executed drain of a lossless full round equals the prediction the
    // admission gates and the base station use EXACTLY, not approximately.
    EXPECT_EQ(ledger.drained_mj(n), predicted[n]) << "node " << n;
  }
}

TEST(EnergyReconciliationTest, BroadcastAndSuppressedRoundsChargeTheLedger) {
  Topology topology = MakeGreatDuckIslandLike();
  Workload workload = DefaultWorkload(topology, 13);
  auto compiled =
      std::make_shared<CompiledPlan>(CompileInitialPlan(topology, workload));
  PlanExecutor executor(compiled, workload.functions, EnergyModel{});
  BatteryLedger ledger(topology.node_count());
  executor.set_battery(&ledger);
  ReadingGenerator readings(topology.node_count(), 7);

  TransmissionOptions broadcast;
  broadcast.use_broadcast = true;
  RoundResult result = executor.RunRound(readings.values(), broadcast);
  EXPECT_EQ(ledger.rounds_charged(), 1);
  double total = 0.0;
  for (NodeId n = 0; n < topology.node_count(); ++n) {
    total += ledger.drained_mj(n);
  }
  // Attribution sums to the round total (up to FP regrouping).
  EXPECT_NEAR(total, result.energy_mj, 1e-9 * std::max(1.0, result.energy_mj));

  // Suppressed rounds charge too (only the deltas that traveled).
  executor.InitializeState(readings.values());
  std::vector<double> changed_readings = readings.values();
  std::vector<bool> changed(topology.node_count(), false);
  const NodeId some_source = workload.tasks[0].sources[0];
  changed_readings[some_source] += 5.0;
  changed[some_source] = true;
  const double before = ledger.total_drain_mj();
  RoundResult suppressed = executor.RunSuppressedRound(
      changed_readings, changed, OverridePolicy::kNone);
  EXPECT_EQ(ledger.rounds_charged(), 2);
  EXPECT_GT(ledger.total_drain_mj(), before);
  EXPECT_GT(suppressed.energy_mj, 0.0);
}

// --- Idle-listen energy audit (satellite a) -----------------------------

TEST(IdleListenAuditTest, TdmaListenEnergyReconcilesWithModel) {
  Topology topology = MakeGreatDuckIslandLike();
  Workload workload = DefaultWorkload(topology, 21);
  CompiledPlan compiled = CompileInitialPlan(topology, workload);
  TdmaSchedule schedule = BuildTdmaSchedule(compiled, topology);
  ASSERT_GT(schedule.slot_count, 1);

  const EnergyModel model;
  const double bit_rate_bps = 38400.0;
  TdmaRoundResult result =
      ExecuteTdmaRound(schedule, compiled, topology, model, bit_rate_bps);

  // Recompute the executed listen energy from the model, accumulating in
  // the executor's exact operation order: max(0, slot - frame) milliseconds
  // of idle listening per receive slot at idle_listen_uj_per_ms.
  const MessageSchedule& messages = compiled.schedule();
  int max_payload = 0;
  std::vector<int> payload_of(messages.messages().size(), 0);
  for (size_t m = 0; m < messages.messages().size(); ++m) {
    for (int u : messages.messages()[m].unit_ids) {
      payload_of[m] += messages.units()[u].unit_bytes;
    }
    max_payload = std::max(max_payload, payload_of[m]);
  }
  const double slot_ms =
      (model.header_bytes + max_payload) * 8.0 * 1000.0 / bit_rate_bps;
  double expected_listen_mj = 0.0;
  for (const TdmaAssignment& assignment : schedule.assignments) {
    const double frame_ms = (model.header_bytes + payload_of[assignment.message]) *
                            8.0 * 1000.0 / bit_rate_bps;
    expected_listen_mj +=
        std::max(0.0, slot_ms - frame_ms) * model.idle_listen_uj_per_ms / 1000.0;
  }
  EXPECT_EQ(result.listen_energy_mj, expected_listen_mj);

  // The schedule's duty cycle saves energy: scheduled receivers listen in
  // strictly fewer slots than idle-listening every slot would cost, and the
  // executed listen energy stays under the unscheduled idle-listen bill.
  EXPECT_LT(schedule.total_listen_slots(), schedule.unscheduled_listen_slots());
  const double unscheduled_idle_mj =
      static_cast<double>(schedule.unscheduled_listen_slots()) * slot_ms *
      model.idle_listen_uj_per_ms / 1000.0;
  EXPECT_LT(result.listen_energy_mj, unscheduled_idle_mj);
}

// --- Residual-energy link costs -----------------------------------------

TEST(ResidualCostTest, FullBatteriesCostExactlyOneAndPreservePaths) {
  Topology topology = MakeUniformRandom(40, Area{100.0, 100.0}, 25.0, 7);
  std::vector<double> full(topology.node_count(), 1.0);
  PathSystem::LinkCostFn cost = ResidualEnergyLinkCost(full, 8.0);
  EXPECT_EQ(cost(0, 1), 1.0);

  PathSystem hop_paths(topology);
  PathSystem cost_paths(topology, 0x5eed, cost);
  for (NodeId u = 0; u < topology.node_count(); ++u) {
    for (NodeId v = 0; v < topology.node_count(); ++v) {
      if (u == v) continue;
      // Cost 1.0 per link yields bit-identical weights to the null cost,
      // so every canonical path is identical — the byte-identity argument
      // for battery-aware replans before any battery has drained.
      EXPECT_EQ(hop_paths.Path(u, v), cost_paths.Path(u, v))
          << u << "->" << v;
    }
  }
}

TEST(ResidualCostTest, CostsClampToPathSystemBounds) {
  PathSystem::LinkCostFn drained = ResidualEnergyLinkCost({0.0, 0.0}, 1e6);
  EXPECT_EQ(drained(0, 1), 1024.0);  // Clamped to the PathSystem ceiling.
  // Out-of-range fractions are clamped into [0, 1] before costing.
  PathSystem::LinkCostFn odd = ResidualEnergyLinkCost({2.0, -1.0}, 8.0);
  EXPECT_EQ(odd(0, 1), 1.0 + 8.0 * 0.5);
  PathSystem::LinkCostFn mild = ResidualEnergyLinkCost({0.5, 1.0}, 8.0);
  EXPECT_EQ(mild(0, 1), 1.0 + 8.0 * 0.25);
}

// --- Lifetime-maximizing forest builder ---------------------------------

TEST(LifetimeForestTest, NeverWorseThanBaselineAndPlansStayConsistent) {
  Topology topology = MakeGreatDuckIslandLike();
  Workload workload = DefaultWorkload(topology, 31);
  std::vector<double> residual(topology.node_count(), 20000.0);
  LifetimeForestStats stats;
  MulticastForest forest =
      BuildLifetimeMaxForest(topology, workload.tasks, residual, &stats);
  EXPECT_GE(stats.iterations_run, 1);
  EXPECT_GE(stats.best_min_lifetime, stats.baseline_min_lifetime);

  // Theorem 1 safety: the forest came from a consistent PathSystem, so the
  // plan built on it passes the full consistency validation.
  GlobalPlan plan =
      BuildPlan(std::make_shared<MulticastForest>(std::move(forest)),
                workload.functions);
  EXPECT_TRUE(FindConsistencyViolations(plan).empty());
}

TEST(LifetimeForestTest, SkewedResidualsRouteAroundTheWeakRelay) {
  Topology topology = MakeGrid(6, 6, 10.0, 12.0);
  PathSystem paths(topology);
  // One corner-to-corner task: the grid offers many equal-length routes, so
  // a weak relay on the default path can be avoided.
  NodeId corner = 0;
  NodeId far = topology.node_count() - 1;
  Task task;
  task.destination = corner;
  task.sources = {far, far - 1, far - 6};
  std::vector<Task> tasks = {task};

  MulticastForest baseline(paths, tasks);
  std::vector<double> load =
      ForestNodeLoad(baseline, kForestTxLoadWeight, kForestRxLoadWeight);

  // Drain a loaded pure relay (not an endpoint — endpoints cannot be
  // routed around) and ask the builder to maximize min lifetime.
  std::vector<double> residual(topology.node_count(), 20000.0);
  NodeId weak = kInvalidNode;
  for (NodeId n = 0; n < topology.node_count(); ++n) {
    if (load[n] <= 0.0) continue;
    if (n == task.destination) continue;
    if (std::find(task.sources.begin(), task.sources.end(), n) !=
        task.sources.end()) {
      continue;
    }
    weak = n;
    break;
  }
  ASSERT_NE(weak, kInvalidNode);
  residual[weak] = 500.0;

  LifetimeForestStats stats;
  MulticastForest forest =
      BuildLifetimeMaxForest(topology, tasks, residual, &stats);
  // The weak relay was the baseline bottleneck; routing around it STRICTLY
  // improves the minimum lifetime (the bench's acceptance criterion in
  // unit-test form).
  EXPECT_GT(stats.best_min_lifetime, stats.baseline_min_lifetime);
  std::vector<double> new_load =
      ForestNodeLoad(forest, kForestTxLoadWeight, kForestRxLoadWeight);
  EXPECT_LT(new_load[weak], load[weak]);
}

TEST(LifetimeForestTest, DeterministicAcrossRepeatedBuilds) {
  Topology topology = MakeGreatDuckIslandLike();
  Workload workload = DefaultWorkload(topology, 37);
  std::vector<double> residual(topology.node_count(), 20000.0);
  for (NodeId n = 0; n < topology.node_count(); n += 3) residual[n] = 900.0;
  LifetimeForestStats a_stats, b_stats;
  MulticastForest a =
      BuildLifetimeMaxForest(topology, workload.tasks, residual, &a_stats);
  MulticastForest b =
      BuildLifetimeMaxForest(topology, workload.tasks, residual, &b_stats);
  EXPECT_EQ(a_stats.best_iteration, b_stats.best_iteration);
  EXPECT_EQ(a_stats.best_min_lifetime, b_stats.best_min_lifetime);
  ASSERT_EQ(a.edges().size(), b.edges().size());
  for (size_t e = 0; e < a.edges().size(); ++e) {
    EXPECT_EQ(a.edges()[e].segment, b.edges()[e].segment) << "edge " << e;
  }
}

// --- Battery-aware admission gate ---------------------------------------

TEST(AdmissionTest, BatteryLifetimeGateRejectsShortLivedPlans) {
  Topology topology = MakeGreatDuckIslandLike();
  Workload workload = DefaultWorkload(topology, 41);
  CompiledPlan compiled = CompileInitialPlan(topology, workload);
  const std::vector<double> drain =
      CompiledRoundEnergyMj(compiled, EnergyModel{});
  NodeId hottest = 0;
  for (NodeId n = 1; n < topology.node_count(); ++n) {
    if (drain[n] > drain[hottest]) hottest = n;
  }
  ASSERT_GT(drain[hottest], 0.0);

  AdmissionLimits limits;
  limits.state_bound_factor = 0.0;  // Isolate the lifetime gate.
  limits.lifetime_budget_rounds = 600;
  limits.node_residual_mj.assign(topology.node_count(), 1e9);
  limits.node_residual_mj[hottest] = drain[hottest] * 500.0;

  AdmissionDecision decision =
      CheckPlanBudgets(compiled, workload.functions, topology, limits);
  EXPECT_FALSE(decision.admitted);
  EXPECT_EQ(decision.reason, AdmissionReason::kBatteryLifetime);
  EXPECT_EQ(ToString(decision.reason), "battery_lifetime");
  EXPECT_EQ(decision.offending_node, hottest);
  EXPECT_NEAR(decision.observed, 500.0, 1e-9);
  EXPECT_EQ(decision.limit, 600.0);

  // Generous residuals admit the same plan.
  limits.node_residual_mj[hottest] = drain[hottest] * 10000.0;
  EXPECT_TRUE(
      CheckPlanBudgets(compiled, workload.functions, topology, limits)
          .admitted);

  // The idle floor participates in the drain: an otherwise-unloaded node
  // with a tiny residual now dies before the budget.
  NodeId idle_node = kInvalidNode;
  for (NodeId n = 0; n < topology.node_count(); ++n) {
    if (drain[n] == 0.0) {
      idle_node = n;
      break;
    }
  }
  if (idle_node != kInvalidNode) {
    limits.idle_mj_per_round = 1.0;
    limits.node_residual_mj[idle_node] = 10.0;
    AdmissionDecision idle_reject =
        CheckPlanBudgets(compiled, workload.functions, topology, limits);
    EXPECT_FALSE(idle_reject.admitted);
    EXPECT_EQ(idle_reject.reason, AdmissionReason::kBatteryLifetime);
  }
}

// --- Self-healing battery integration -----------------------------------

/// Everything one battery-aware self-healing run produces.
struct EnergyRun {
  std::string trace;
  std::map<NodeId, int> first_depleted;
  std::map<NodeId, int> first_believed_dead;
  std::map<NodeId, int> first_energy_dead;
  int rotations = 0;
  int first_rotation_round = -1;
  std::unordered_map<NodeId, double> final_values;
  std::vector<NodeId> final_incomplete;
  int final_pending_installs = -1;
  uint32_t final_epoch = 0;
  int replans = 0;
  std::vector<NodeId> believed_dead;
  std::vector<NodeId> believed_energy_dead;
  std::vector<NodeId> battery_depleted;
  std::optional<GlobalPlan> final_plan;
  Workload final_workload;
};

EnergyRun RunEnergyHealing(
    const Topology& topology, const Workload& workload, NodeId base,
    const SelfHealingOptions& options, int total_rounds,
    uint64_t readings_seed,
    const std::function<PhysicalLayer(int round)>& radio,
    int stop_rounds_after_depletion = -1) {
  EventTrace trace;
  SelfHealingRuntime runtime(topology, workload, base, options);
  EnergyRun run;
  int tail = -1;
  for (int round = 0; round < total_rounds; ++round) {
    ReadingGenerator readings(topology.node_count(),
                              readings_seed + static_cast<uint64_t>(round));
    SelfHealingRoundResult result = runtime.RunRound(
        round, readings.values(), radio(round).Bind(round), &trace);
    if (result.replanned) ++run.replans;
    if (result.energy_rotation) {
      ++run.rotations;
      if (run.first_rotation_round < 0) run.first_rotation_round = round;
    }
    for (NodeId n : result.battery_depleted) {
      run.first_depleted.try_emplace(n, round);
    }
    for (NodeId n : runtime.ledger().believed_dead()) {
      run.first_believed_dead.try_emplace(n, round);
    }
    // Energy classification: the believed-dead mortal nodes whose
    // predicted residual is at most 10%.
    std::vector<NodeId> energy_dead;
    if (options.energy.battery_aware) {
      const BatteryLedger& predicted = runtime.predicted_battery();
      for (NodeId n : runtime.ledger().believed_dead()) {
        if (!predicted.immortal(n) && predicted.residual_fraction(n) <= 0.10) {
          energy_dead.push_back(n);
        }
      }
    }
    EXPECT_EQ(result.believed_energy_dead, energy_dead) << "round " << round;
    for (NodeId n : result.believed_energy_dead) {
      run.first_energy_dead.try_emplace(n, round);
    }
    run.final_values = result.data.destination_values;
    run.final_incomplete = result.data.incomplete_destinations;
    run.final_pending_installs = result.pending_installs;
    run.battery_depleted = result.battery_depleted;
    run.believed_energy_dead = result.believed_energy_dead;
    // Optional early stop: scenarios comparing first-depletion rounds end
    // shortly after the first battery death, before cascading depletion
    // can strip a task of its last source.
    if (stop_rounds_after_depletion >= 0 && tail < 0 &&
        !run.first_depleted.empty()) {
      tail = stop_rounds_after_depletion;
    }
    if (tail >= 0 && tail-- == 0) break;
  }
  run.final_epoch = runtime.base_epoch();
  run.believed_dead = runtime.ledger().believed_dead();
  run.final_plan = runtime.plan();
  run.final_workload = runtime.current_workload();
  run.trace = trace.ToString();
  return run;
}

PhysicalLayer PerfectRadio(int) { return {}; }

// The tentpole differential: a relay runs out of battery mid-deployment.
// The death is earned purely from executed drain — no fault schedule lists
// it — yet it travels the full healing path: neighbors detect the silence,
// the base station believes the death, classifies it energy-dead from its
// own in-band residual predictions, replans around the corpse over
// residual-energy costs, and every surviving destination reconverges to the
// survivor-topology oracle. Replays are byte-identical.
class EnergyExhaustionDifferential : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(EnergyExhaustionDifferential, DepletionHealsLikeACrashButClassified) {
  const uint64_t seed = GetParam();
  Topology topology = MakeGreatDuckIslandLike();
  Workload workload = DefaultWorkload(topology, seed * 17 + 3);
  NodeId base = PickBaseStation(topology);

  // Pick the hottest mortal relay under the initial plan and give it only
  // ~3.5 analytic rounds of charge; everyone else gets the full 20 J.
  CompiledPlan compiled = CompileInitialPlan(topology, workload);
  const std::vector<double> drain = CompiledRoundEnergyMj(compiled, EnergyModel{});
  std::vector<NodeId> protected_nodes = Destinations(workload);
  protected_nodes.push_back(base);
  NodeId victim = kInvalidNode;
  for (NodeId n = 0; n < topology.node_count(); ++n) {
    if (std::find(protected_nodes.begin(), protected_nodes.end(), n) !=
        protected_nodes.end()) {
      continue;
    }
    if (victim == kInvalidNode || drain[n] > drain[victim]) victim = n;
  }
  ASSERT_NE(victim, kInvalidNode);
  ASSERT_GT(drain[victim], 0.0);

  SelfHealingOptions options;
  options.energy.battery_aware = true;
  options.energy.proactive_rotation = false;  // Isolate the exhaustion path.
  options.energy.battery.initial_charge_mj_per_node.assign(
      topology.node_count(), 20000.0);
  options.energy.battery.initial_charge_mj_per_node[victim] =
      drain[victim] * 3.5;
  options.energy.battery.immortal_nodes = protected_nodes;

  const int total_rounds = 30;
  EnergyRun run =
      RunEnergyHealing(topology, workload, base, options, total_rounds,
                       seed + 1000, PerfectRadio);

  // --- The victim (and only the victim) physically depleted.
  ASSERT_TRUE(run.first_depleted.contains(victim))
      << "seed " << seed << ": victim " << victim << " never depleted";
  EXPECT_EQ(run.first_depleted.size(), 1u) << "seed " << seed;
  const int depleted_round = run.first_depleted.at(victim);
  // The trace carries the deterministic exhaustion event.
  EXPECT_NE(run.trace.find("energy-exhaustion"), std::string::npos)
      << "seed " << seed;

  // --- Detected through the ordinary in-band machinery, promptly.
  ASSERT_TRUE(run.first_believed_dead.contains(victim))
      << "seed " << seed << ": exhausted node never believed dead";
  const int latency_budget = options.detector.suspicion_threshold + 4;
  EXPECT_LE(run.first_believed_dead.at(victim),
            depleted_round + latency_budget)
      << "seed " << seed;
  EXPECT_EQ(run.believed_dead, (std::vector<NodeId>{victim}))
      << "seed " << seed;

  // --- Classified energy-dead (vs crash) from in-band predictions only.
  ASSERT_TRUE(run.first_energy_dead.contains(victim)) << "seed " << seed;
  EXPECT_EQ(run.believed_energy_dead, (std::vector<NodeId>{victim}))
      << "seed " << seed;

  // --- Healed: dissemination acked, everything reconverged.
  EXPECT_EQ(run.final_pending_installs, 0) << "seed " << seed;
  EXPECT_TRUE(run.final_incomplete.empty()) << "seed " << seed;
  EXPECT_GE(run.replans, 1) << "seed " << seed;
  ASSERT_TRUE(run.final_plan.has_value());
  EXPECT_TRUE(ValidatePlanConsistency(*run.final_plan)) << "seed " << seed;

  // --- Differential vs the survivor-topology oracle: the converged values
  // equal a from-scratch plan's executor over the true surviving topology
  // and the victim-less workload, on the same readings.
  Workload survivors = workload;
  for (const Task& task : std::vector<Task>(survivors.tasks)) {
    if (std::find(task.sources.begin(), task.sources.end(), victim) !=
        task.sources.end()) {
      survivors = WithSourceRemoved(survivors, victim, task.destination);
    }
  }
  Topology masked = Topology::WithFailures(topology, {}, {victim});
  PathSystem masked_paths(masked);
  GlobalPlan oracle_plan = BuildPlan(
      std::make_shared<MulticastForest>(masked_paths, survivors.tasks),
      survivors.functions);
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
  EnergyRun replay =
      RunEnergyHealing(topology, workload, base, options, total_rounds,
                       seed + 1000, PerfectRadio);
  EXPECT_EQ(run.trace, replay.trace) << "seed " << seed;
  EXPECT_EQ(run.first_depleted, replay.first_depleted) << "seed " << seed;
  EXPECT_EQ(run.final_values, replay.final_values) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(TwentySeeds, EnergyExhaustionDifferential,
                         ::testing::Range<uint64_t>(1, 21));

// Legacy byte-identity: with batteries effectively infinite (or the feature
// off), the battery-aware runtime is byte-identical to the legacy one over
// the full fault-schedule healing scenario — residual costs evaluate to
// weights bit-identical to hop count, nothing depletes, no trigger fires.
class BatteryLegacyEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatteryLegacyEquivalence, InfiniteBatteriesAreByteIdenticalToLegacy) {
  const uint64_t seed = GetParam();
  Topology topology = MakeGreatDuckIslandLike();
  Workload workload = DefaultWorkload(topology, seed * 17 + 3);
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

  auto radio = [&schedule](int) { return PhysicalLayer{.faults = &schedule}; };
  const int total_rounds = schedule_options.rounds + 10;

  SelfHealingOptions legacy;  // battery_aware defaults to false.
  EnergyRun legacy_run = RunEnergyHealing(topology, workload, base, legacy,
                                          total_rounds, seed + 1000, radio);

  SelfHealingOptions battery;
  battery.energy.battery_aware = true;
  // Charges so large that residual fractions round to 1.0 in double
  // precision: link costs stay exactly 1.0, weights stay bit-identical.
  battery.energy.battery.initial_charge_mj = 1e18;
  EnergyRun battery_run = RunEnergyHealing(topology, workload, base, battery,
                                           total_rounds, seed + 1000, radio);

  EXPECT_EQ(legacy_run.trace, battery_run.trace) << "seed " << seed;
  EXPECT_EQ(legacy_run.final_values, battery_run.final_values);
  EXPECT_EQ(legacy_run.final_epoch, battery_run.final_epoch);
  EXPECT_EQ(legacy_run.replans, battery_run.replans);
  EXPECT_EQ(legacy_run.believed_dead, battery_run.believed_dead);
  EXPECT_TRUE(battery_run.first_depleted.empty());
  EXPECT_EQ(battery_run.rotations, 0);
  // And the battery-mode extras stayed quiet: no exhaustion classification.
  EXPECT_TRUE(battery_run.believed_energy_dead.empty());
}

INSTANTIATE_TEST_SUITE_P(TwentySeeds, BatteryLegacyEquivalence,
                         ::testing::Range<uint64_t>(1, 21));

// Proactive rotation: with path diversity (a grid), rotating bottleneck
// relays before they die strictly postpones the first battery death, and
// the monotone trigger + cooldown keep rotations bounded (no flapping).
TEST(ProactiveRotationTest, RotationStrictlyDelaysFirstDepletion) {
  Topology topology = MakeGrid(7, 5, 10.0, 12.0);
  NodeId base = PickBaseStation(topology);
  // One task from the far corner region to the base: many equal-length
  // grid routes exist, so load can rotate across parallel relays.
  PathSystem paths(topology);
  std::vector<std::pair<int, NodeId>> by_distance;
  for (NodeId n = 0; n < topology.node_count(); ++n) {
    if (n == base) continue;
    by_distance.emplace_back(paths.HopDistance(base, n), n);
  }
  std::sort(by_distance.begin(), by_distance.end());
  Task task;
  task.destination = base;
  FunctionSpec spec;
  spec.kind = AggregateKind::kWeightedAverage;
  for (size_t i = by_distance.size() - 3; i < by_distance.size(); ++i) {
    task.sources.push_back(by_distance[i].second);
    spec.weights.emplace_back(by_distance[i].second, 1.0);
  }
  Workload workload;
  workload.tasks = {task};
  workload.specs = {spec};
  workload.RebuildFunctions();

  // Sources and base are wall-powered so relay rotation is the only lever.
  SelfHealingOptions common;
  common.energy.battery_aware = true;
  common.energy.battery.immortal_nodes = task.sources;
  common.energy.battery.immortal_nodes.push_back(base);

  // Probe one executed round to size the batteries off the *physical*
  // drain (encoded bytes + ack traffic), which runs ~2x the analytic
  // prediction; the in-band trigger watches predicted residuals, so it
  // needs a threshold high enough to fire before the physical death.
  double max_phys = 0.0;
  {
    SelfHealingOptions probe_options = common;
    probe_options.energy.battery.initial_charge_mj = 1e9;
    SelfHealingRuntime probe(topology, workload, base, probe_options);
    ReadingGenerator readings(topology.node_count(), 4242);
    probe.RunRound(0, readings.values(), PhysicalLayer{}.Bind(0), nullptr);
    for (NodeId n = 0; n < topology.node_count(); ++n) {
      max_phys = std::max(max_phys, probe.battery().drained_mj(n));
    }
  }
  ASSERT_GT(max_phys, 0.0);
  common.energy.battery.initial_charge_mj = max_phys * 10.0;
  common.energy.rotation_threshold = 0.75;
  common.energy.rotation_cooldown_rounds = 3;

  // Each run ends shortly after its own first battery death: letting the
  // cascade run on would eventually isolate the task's sources, which is a
  // different scenario (partition) than the one under test (lifetime).
  const int total_rounds = 60;
  SelfHealingOptions without = common;
  without.energy.proactive_rotation = false;
  EnergyRun no_rotation =
      RunEnergyHealing(topology, workload, base, without, total_rounds, 4242,
                       PerfectRadio,
                       /*stop_rounds_after_depletion=*/2);

  SelfHealingOptions with = common;
  with.energy.proactive_rotation = true;
  EnergyRun rotation =
      RunEnergyHealing(topology, workload, base, with, total_rounds, 4242,
                       PerfectRadio,
                       /*stop_rounds_after_depletion=*/2);

  ASSERT_FALSE(no_rotation.first_depleted.empty())
      << "scenario too gentle: nothing depleted without rotation";
  int first_death_without = total_rounds;
  for (const auto& [node, round] : no_rotation.first_depleted) {
    first_death_without = std::min(first_death_without, round);
  }
  int first_death_with = total_rounds;
  for (const auto& [node, round] : rotation.first_depleted) {
    first_death_with = std::min(first_death_with, round);
  }
  EXPECT_GE(rotation.rotations, 1);
  EXPECT_LE(rotation.rotations, 5) << "rotation trigger is flapping";
  EXPECT_GT(first_death_with, first_death_without)
      << "rotation must STRICTLY postpone the first battery death";
  EXPECT_NE(rotation.trace.find("energy rotation trigger"),
            std::string::npos);
}

// Cause classification is distinct: a crashed node with a healthy battery
// is believed dead but NOT classified energy-dead.
TEST(EnergyClassificationTest, CrashDeathIsNotClassifiedEnergyDead) {
  Topology topology = MakeGreatDuckIslandLike();
  Workload workload = DefaultWorkload(topology, 51);
  NodeId base = PickBaseStation(topology);
  std::vector<NodeId> protected_nodes = Destinations(workload);
  protected_nodes.push_back(base);
  CompiledPlan compiled = CompileInitialPlan(topology, workload);
  const std::vector<double> drain = CompiledRoundEnergyMj(compiled, EnergyModel{});
  NodeId victim = kInvalidNode;
  for (NodeId n = 0; n < topology.node_count(); ++n) {
    if (std::find(protected_nodes.begin(), protected_nodes.end(), n) !=
        protected_nodes.end()) {
      continue;
    }
    if (victim == kInvalidNode || drain[n] > drain[victim]) victim = n;
  }
  ASSERT_NE(victim, kInvalidNode);

  SelfHealingOptions options;
  options.energy.battery_aware = true;  // Full 20 J everywhere.
  options.energy.battery.immortal_nodes = protected_nodes;

  const int crash_round = 3;
  std::vector<bool> crashed(static_cast<size_t>(topology.node_count()));
  crashed[victim] = true;
  auto radio = [&crashed](int round) {
    return round >= crash_round ? PhysicalLayer{.down = &crashed}
                                : PhysicalLayer{};
  };

  EnergyRun run = RunEnergyHealing(topology, workload, base, options, 15,
                                   5151, radio);
  EXPECT_TRUE(run.first_depleted.empty());
  ASSERT_TRUE(run.first_believed_dead.contains(victim))
      << "crashed node never believed dead";
  // Believed dead, but its predicted residual is nearly full: the in-band
  // classifier refuses to call it an energy death.
  EXPECT_TRUE(run.believed_energy_dead.empty());
  EXPECT_TRUE(run.first_energy_dead.empty());
}

}  // namespace
}  // namespace m2m
