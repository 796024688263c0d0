// Network lifetime: energy efficiency matters through the *hottest* node —
// the first battery to die takes its readings (and its relay role) with it.
//
// Part 1 reports mean/max per-node round energy and the implied lifetime in
// rounds for each algorithm on a small sensing-budget battery share (20 J of
// radio budget per node, ~0.2% of a pair of AA cells).
//
// Part 2 is the battery-aware planning sweep: a fast-forward depletion
// simulation (drain whole epochs analytically, replan at depletion and — for
// the battery-aware strategies — on a proactive rotation cadence) comparing
//   baseline        hop-cost planning, replans only when a node dies;
//   residual_costs  replans over residual-energy link costs (drained relays
//                   get expensive, load rotates);
//   lifetime_max    the Kuo-style max-min residual forest builder.
// Reported per cell: rounds until the first battery death and rounds until
// source coverage drops below 90%. The headline claim: lifetime_max strictly
// outlives the baseline's first death on every cell of the dispersion x size
// sweep. Results also land in BENCH_lifetime.json; `--metrics-json` exports
// the energy.* metrics of a compact battery-aware self-healing run.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "lifecycle/admission.h"
#include "routing/lifetime_forest.h"
#include "sim/battery.h"
#include "sim/self_healing.h"

namespace {

using namespace m2m;

constexpr double kRadioBudgetMj = 20000.0;  // 20 J per node.

struct LifetimeNumbers {
  double mean_mj = 0.0;
  double max_mj = 0.0;
  int64_t lifetime_rounds = 0;
};

LifetimeNumbers FromNodeEnergy(const std::vector<double>& node_energy) {
  LifetimeNumbers numbers;
  for (double e : node_energy) {
    numbers.mean_mj += e;
    numbers.max_mj = std::max(numbers.max_mj, e);
  }
  numbers.mean_mj /= static_cast<double>(node_energy.size());
  numbers.lifetime_rounds =
      numbers.max_mj <= 0.0
          ? 0
          : static_cast<int64_t>(kRadioBudgetMj / numbers.max_mj);
  return numbers;
}

enum class LifetimeStrategy { kBaseline, kResidualCosts, kLifetimeMax };

std::string ToString(LifetimeStrategy strategy) {
  switch (strategy) {
    case LifetimeStrategy::kBaseline:
      return "baseline";
    case LifetimeStrategy::kResidualCosts:
      return "residual_costs";
    case LifetimeStrategy::kLifetimeMax:
      return "lifetime_max";
  }
  return "?";
}

struct DepletionOutcome {
  int64_t first_death_round = 0;
  int64_t coverage90_round = 0;
  int replans = 0;
  int deaths = 0;  ///< Depleted nodes by the time coverage dropped.
  double initial_hottest_mj = 0.0;
};

/// Drops `source` from every task that uses it; a task left with no sources
/// is retired entirely (its aggregate is undefined without inputs).
Workload WithoutSource(const Workload& workload, NodeId source) {
  Workload out;
  for (size_t i = 0; i < workload.tasks.size(); ++i) {
    Task task = workload.tasks[i];
    FunctionSpec spec = workload.specs[i];
    auto it = std::find(task.sources.begin(), task.sources.end(), source);
    if (it != task.sources.end()) {
      task.sources.erase(it);
      spec.weights.erase(
          std::remove_if(spec.weights.begin(), spec.weights.end(),
                         [source](const std::pair<NodeId, double>& w) {
                           return w.first == source;
                         }),
          spec.weights.end());
    }
    if (task.sources.empty()) continue;
    out.tasks.push_back(std::move(task));
    out.specs.push_back(std::move(spec));
  }
  out.RebuildFunctions();
  return out;
}

/// Fast-forward depletion simulation: drains every node by its analytic
/// per-round energy under the current plan, advancing whole epochs at once
/// (rounds to the next depletion, capped — for battery-aware strategies —
/// by a rotation cadence of 5% of the budget at the hottest node), replans
/// per strategy, and stops once source coverage falls below 90%.
DepletionOutcome SimulateDepletion(const Topology& topology,
                                   const Workload& workload,
                                   NodeId base,
                                   LifetimeStrategy strategy) {
  DepletionOutcome outcome;
  const int n = topology.node_count();
  std::vector<bool> immortal(n, false);
  immortal[base] = true;
  int64_t total_pairs = 0;
  for (const Task& task : workload.tasks) {
    immortal[task.destination] = true;  // Consumers stay powered (the
    total_pairs += static_cast<int64_t>(task.sources.size());
  }  // paper's model: a dead consumer makes its aggregate undefined).

  std::vector<double> residual(n, kRadioBudgetMj);
  std::vector<NodeId> dead;
  Workload current = workload;
  int64_t rounds = 0;
  const int64_t kRoundCap = 4'000'000;

  while (rounds < kRoundCap && !current.tasks.empty()) {
    Topology masked = Topology::WithFailures(topology, {}, dead);
    // Sources cut off by relay deaths stop contributing (coverage loss),
    // and the planner cannot route to them anyway.
    for (const Task& task : std::vector<Task>(current.tasks)) {
      std::vector<int> hops = masked.HopDistancesFrom(task.destination);
      for (NodeId source : std::vector<NodeId>(task.sources)) {
        if (hops[source] < 0) current = WithoutSource(current, source);
      }
    }
    int64_t alive_pairs = 0;
    for (const Task& task : current.tasks) {
      alive_pairs += static_cast<int64_t>(task.sources.size());
    }
    if (alive_pairs * 10 < total_pairs * 9) {
      outcome.coverage90_round = rounds;
      break;
    }
    if (current.tasks.empty()) break;

    std::vector<double> fractions(n, 0.0);
    for (NodeId node = 0; node < n; ++node) {
      fractions[node] =
          immortal[node] ? 1.0
                         : std::max(0.0, residual[node]) / kRadioBudgetMj;
    }
    std::shared_ptr<MulticastForest> forest;
    switch (strategy) {
      case LifetimeStrategy::kBaseline:
        forest = std::make_shared<MulticastForest>(PathSystem(masked),
                                                   current.tasks);
        break;
      case LifetimeStrategy::kResidualCosts:
        forest = std::make_shared<MulticastForest>(
            PathSystem(masked, 0x5eed,
                       ResidualEnergyLinkCost(fractions, 8.0)),
            current.tasks);
        break;
      case LifetimeStrategy::kLifetimeMax: {
        std::vector<double> residual_for_build(n, kRadioBudgetMj);
        for (NodeId node = 0; node < n; ++node) {
          residual_for_build[node] =
              immortal[node] ? kRadioBudgetMj : std::max(0.0, residual[node]);
        }
        forest = std::make_shared<MulticastForest>(BuildLifetimeMaxForest(
            masked, current.tasks, residual_for_build));
        break;
      }
    }
    GlobalPlan plan = BuildPlan(forest, current.functions);
    CompiledPlan compiled = CompiledPlan::Compile(plan, current.functions);
    ++outcome.replans;
    std::vector<double> drain = CompiledRoundEnergyMj(compiled, EnergyModel{});

    double max_drain = 0.0;
    int64_t to_death = kRoundCap;
    for (NodeId node = 0; node < n; ++node) {
      if (immortal[node] || drain[node] <= 0.0) continue;
      max_drain = std::max(max_drain, drain[node]);
      const int64_t k = static_cast<int64_t>(
          std::max(1.0, std::ceil(residual[node] / drain[node])));
      to_death = std::min(to_death, k);
    }
    if (outcome.replans == 1) outcome.initial_hottest_mj = max_drain;
    if (max_drain <= 0.0) break;  // Nothing drains: infinite lifetime.

    int64_t chunk = to_death;
    if (strategy != LifetimeStrategy::kBaseline) {
      // Proactive rotation cadence: replan every ~5% of the hottest
      // node's remaining budget, mirroring the runtime's energy trigger.
      const int64_t cadence = std::max<int64_t>(
          1, static_cast<int64_t>(0.05 * kRadioBudgetMj / max_drain));
      chunk = std::min(chunk, cadence);
    }
    chunk = std::min(chunk, kRoundCap - rounds);
    rounds += chunk;

    bool any_death = false;
    for (NodeId node = 0; node < n; ++node) {
      if (immortal[node] || drain[node] <= 0.0) continue;
      residual[node] -= static_cast<double>(chunk) * drain[node];
      if (residual[node] <= 1e-9 &&
          std::find(dead.begin(), dead.end(), node) == dead.end()) {
        dead.push_back(node);
        any_death = true;
        ++outcome.deaths;
        if (outcome.first_death_round == 0) {
          outcome.first_death_round = rounds;
        }
        current = WithoutSource(current, node);
      }
    }
    // Baseline only replans when the topology changed; the battery-aware
    // strategies also rotate on cadence (loop re-enters and replans).
    (void)any_death;
  }
  if (outcome.coverage90_round == 0) outcome.coverage90_round = rounds;
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  Topology topology = MakeGreatDuckIslandLike();
  PathSystem paths(topology);
  NodeId base = PickBaseStation(topology);

  WorkloadSpec spec;
  spec.destination_count = 20;
  spec.sources_per_destination = 20;
  spec.dispersion = 0.9;
  spec.seed = 8100;
  Workload workload = GenerateWorkload(topology, spec);
  ReadingGenerator readings(topology.node_count(), 18);

  Table table({"algorithm", "mean_node_mJ", "hottest_node_mJ",
               "lifetime_rounds"});
  for (PlanStrategy strategy :
       {PlanStrategy::kOptimal, PlanStrategy::kMulticastOnly,
        PlanStrategy::kAggregationOnly}) {
    SystemOptions options;
    options.planner.strategy = strategy;
    System system(topology, workload, options);
    RoundResult round = system.MakeExecutor().RunRound(readings.values());
    LifetimeNumbers numbers = FromNodeEnergy(round.node_energy_mj);
    table.AddRow({ToString(strategy), Table::Num(numbers.mean_mj, 3),
                  Table::Num(numbers.max_mj, 3),
                  std::to_string(numbers.lifetime_rounds)});
  }
  {
    BaseStationRoundResult bs = SimulateBaseStationRound(
        topology, paths, workload, base, EnergyModel{});
    LifetimeNumbers numbers = FromNodeEnergy(bs.node_energy_mj);
    table.AddRow({"base_station", Table::Num(numbers.mean_mj, 3),
                  Table::Num(numbers.max_mj, 3),
                  std::to_string(numbers.lifetime_rounds)});
  }
  {
    FloodResult flood = SimulateFloodRound(
        topology, workload.DistinctSources(), EnergyModel{});
    LifetimeNumbers numbers = FromNodeEnergy(flood.node_energy_mj);
    table.AddRow({"flood", Table::Num(numbers.mean_mj, 3),
                  Table::Num(numbers.max_mj, 3),
                  std::to_string(numbers.lifetime_rounds)});
  }
  m2m::bench::EmitTable(
      "Network lifetime — the hottest node dies first",
      "GDI-like 68-node network, 20 destinations x 20 sources, d=0.9; "
      "lifetime = 20 J radio budget / hottest node's round energy",
      table);

  // ---- Part 2: battery-aware planning sweep -----------------------------
  const std::vector<double> dispersions = {0.3, 0.9};
  std::vector<Topology> topologies = MakeScalingSeries({68, 150}, 6100);

  Table sweep({"nodes", "dispersion", "strategy", "first_death_round",
               "coverage90_round", "replans", "deaths", "hottest_mJ"});
  std::ofstream json("BENCH_lifetime.json");
  json << "{\n  \"experiment\": \"lifetime\",\n"
       << "  \"setup\": \"fast-forward depletion sweep; 10 destinations x 5 "
          "sources; 20 J radio budget per node, destinations and base "
          "wall-powered; battery-aware strategies replan on a 5%-of-budget "
          "rotation cadence, baseline replans only on death\",\n"
       << "  \"rows\": [\n";
  bool first_row = true;
  bool lifetime_max_strictly_better = true;
  for (size_t t = 0; t < topologies.size(); ++t) {
    const Topology& sweep_topology = topologies[t];
    NodeId sweep_base = PickBaseStation(sweep_topology);
    for (double dispersion : dispersions) {
      WorkloadSpec sweep_spec;
      sweep_spec.destination_count = 10;
      sweep_spec.sources_per_destination = 5;
      sweep_spec.dispersion = dispersion;
      sweep_spec.seed = 8200 + static_cast<uint64_t>(t);
      Workload sweep_workload = GenerateWorkload(sweep_topology, sweep_spec);

      int64_t baseline_first_death = 0;
      for (LifetimeStrategy strategy :
           {LifetimeStrategy::kBaseline, LifetimeStrategy::kResidualCosts,
            LifetimeStrategy::kLifetimeMax}) {
        DepletionOutcome outcome = SimulateDepletion(
            sweep_topology, sweep_workload, sweep_base, strategy);
        if (strategy == LifetimeStrategy::kBaseline) {
          baseline_first_death = outcome.first_death_round;
        } else if (strategy == LifetimeStrategy::kLifetimeMax &&
                   outcome.first_death_round <= baseline_first_death) {
          lifetime_max_strictly_better = false;
        }
        sweep.AddRow({std::to_string(sweep_topology.node_count()),
                      Table::Num(dispersion, 1), ToString(strategy),
                      std::to_string(outcome.first_death_round),
                      std::to_string(outcome.coverage90_round),
                      std::to_string(outcome.replans),
                      std::to_string(outcome.deaths),
                      Table::Num(outcome.initial_hottest_mj, 3)});
        json << (first_row ? "" : ",\n") << "    {\"nodes\": "
             << sweep_topology.node_count() << ", \"dispersion\": "
             << Table::Num(dispersion, 1) << ", \"strategy\": \""
             << ToString(strategy) << "\", \"first_death_round\": "
             << outcome.first_death_round << ", \"coverage90_round\": "
             << outcome.coverage90_round << ", \"replans\": "
             << outcome.replans << ", \"deaths\": " << outcome.deaths
             << ", \"hottest_mj\": "
             << Table::Num(outcome.initial_hottest_mj, 3) << "}";
        first_row = false;
      }
    }
  }
  json << "\n  ],\n  \"lifetime_max_strictly_outlives_baseline\": "
       << (lifetime_max_strictly_better ? "true" : "false")
       << ",\n  \"claim\": \"lifetime-max planning strictly postpones the "
          "first battery death vs hop-cost baseline on every cell of the "
          "dispersion x size sweep; residual-cost rotation stretches "
          "90%-coverage lifetime further\"\n}\n";
  m2m::bench::EmitTable(
      "Battery-aware planning — rounds until first death / coverage<90%",
      "depletion fast-forward; dispersion x size sweep; JSON copy in "
      "BENCH_lifetime.json",
      sweep);

  // ---- energy.* metrics export (obs-smoke validates the names) ----------
  {
    WorkloadSpec heal_spec;
    heal_spec.destination_count = 5;
    heal_spec.sources_per_destination = 5;
    heal_spec.max_hops = 4;
    heal_spec.seed = 20;
    Workload heal_workload = GenerateWorkload(topology, heal_spec);
    GlobalPlan plan = BuildPlan(
        std::make_shared<MulticastForest>(PathSystem(topology),
                                          heal_workload.tasks),
        heal_workload.functions);
    CompiledPlan compiled = CompiledPlan::Compile(
        plan, heal_workload.functions, MergePolicy::kGreedyMergePerEdge, 0);
    std::vector<double> drain = CompiledRoundEnergyMj(compiled, EnergyModel{});
    std::vector<NodeId> protected_nodes;
    for (const Task& task : heal_workload.tasks) {
      protected_nodes.push_back(task.destination);
    }
    protected_nodes.push_back(base);
    NodeId victim = kInvalidNode;
    for (NodeId node = 0; node < topology.node_count(); ++node) {
      if (std::find(protected_nodes.begin(), protected_nodes.end(), node) !=
          protected_nodes.end()) {
        continue;
      }
      if (victim == kInvalidNode || drain[node] > drain[victim]) {
        victim = node;
      }
    }
    SelfHealingOptions options;
    options.energy.battery_aware = true;
    options.energy.proactive_rotation = false;
    options.energy.battery.initial_charge_mj_per_node.assign(
        topology.node_count(), kRadioBudgetMj);
    options.energy.battery.initial_charge_mj_per_node[victim] =
        drain[victim] * 3.5;
    options.energy.battery.immortal_nodes = protected_nodes;

    obs::MetricsRegistry metrics;
    SelfHealingRuntime runtime(topology, heal_workload, base, options);
    runtime.set_metrics(&metrics);
    for (int round = 0; round < 15; ++round) {
      ReadingGenerator heal_readings(topology.node_count(),
                                     900 + static_cast<uint64_t>(round));
      LossyLinkModel physical;
      physical.attempt_delivers = [](NodeId, NodeId, int) { return true; };
      physical.node_alive = [](NodeId) { return true; };
      runtime.RunRound(round, heal_readings.values(), physical);
    }
    m2m::bench::MaybeWriteMetricsJson(argc, argv, metrics);
  }
  return 0;
}
