// A full mission: 200 rounds of in-network control on the GDI-like network
// with drifting readings (temporal suppression + conservative override),
// occasional node death/deployment served by the query lifecycle manager
// (incremental re-planning; the image delta is what dissemination ships),
// and sampled transient link failures.
//
//   ./mission_sim

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>

#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/m2m.h"
#include "lifecycle/lifecycle.h"

int main() {
  using namespace m2m;
  Topology topology = MakeGreatDuckIslandLike();
  WorkloadSpec spec;
  spec.destination_count = 14;
  spec.sources_per_destination = 15;
  spec.dispersion = 0.9;
  spec.kind = AggregateKind::kWeightedAverage;
  spec.seed = 77;
  QueryLifecycleManager lifecycle(topology, GenerateWorkload(topology, spec),
                                  PickBaseStation(topology));

  const double kChangeProbability = 0.15;
  const double kChurnProbability = 0.03;  // A change every ~33 rounds.
  const uint64_t kSeed = 78;
  ReadingGenerator readings(topology.node_count(), SplitMix64(kSeed));
  LinkStabilityModel stability(topology, SplitMix64(kSeed ^ 0xfa11));
  Rng rng(kSeed);

  // Suppression state belongs to one plan, so every commit rebuilds the
  // executor and re-primes it from the current readings (the one
  // resynchronization round a real network would pay is not charged).
  auto make_executor = [&] {
    PlanExecutor executor(std::make_shared<CompiledPlan>(lifecycle.compiled()),
                          lifecycle.workload().functions, EnergyModel{});
    executor.InitializeState(readings.values());
    return executor;
  };
  PlanExecutor executor = make_executor();

  // Picks a random query and either removes one of its sources (a node
  // died) or adds the first unused node from a random offset (a node was
  // deployed or re-tasked).
  auto churn = [&]() -> MutationResult {
    const std::vector<Task>& tasks = lifecycle.workload().tasks;
    const Task& task = tasks[rng.UniformInt(tasks.size())];
    const NodeId d = task.destination;
    if (rng.Bernoulli(0.5) && task.sources.size() > 2) {
      return lifecycle.RemoveSource(
          d, task.sources[rng.UniformInt(task.sources.size())]);
    }
    const int n = topology.node_count();
    const NodeId offset =
        static_cast<NodeId>(rng.UniformInt(static_cast<uint64_t>(n)));
    for (int i = 0; i < n; ++i) {
      const NodeId candidate = (offset + i) % n;
      if (candidate != d &&
          std::find(task.sources.begin(), task.sources.end(), candidate) ==
              task.sources.end()) {
        return lifecycle.AddSource(d, candidate,
                                   rng.UniformDouble(0.5, 1.5));
      }
    }
    return {};  // Every node already feeds d.
  };

  std::printf("mission: %d nodes, %zu control functions, suppression on, "
              "churn p=%.2f\n\n",
              topology.node_count(), lifecycle.workload().tasks.size(),
              kChurnProbability);

  RunningStat round_energy_mj;
  RunningStat round_messages;
  RunningStat delivery_pct;
  int rounds = 0;
  int64_t changes = 0;
  int64_t edges_reoptimized = 0;
  int64_t edges_reused = 0;
  int64_t images_shipped = 0;
  int64_t bumps_shipped = 0;
  int64_t delta_bytes = 0;
  Table timeline({"rounds", "mean_round_mJ", "mean_msgs", "plan_changes",
                  "delta_bytes", "delivery_pct"});
  const int kPhases = 5;
  const int kRoundsPerPhase = 40;
  for (int phase = 0; phase < kPhases; ++phase) {
    for (int r = 0; r < kRoundsPerPhase; ++r) {
      if (rng.Bernoulli(kChurnProbability)) {
        MutationResult mutation = churn();
        if (mutation.decision.admitted) {
          changes += 1;
          edges_reoptimized += mutation.replan.edges_reoptimized;
          edges_reused += mutation.replan.edges_reused;
          images_shipped += mutation.images_shipped;
          bumps_shipped += mutation.bumps_shipped;
          delta_bytes += mutation.delta_state_bytes;
          executor = make_executor();
        }
      }
      std::vector<bool> changed = readings.Advance(kChangeProbability);
      // Verifies every maintained aggregate against direct evaluation.
      RoundResult round = executor.RunSuppressedRound(
          readings.values(), changed, OverridePolicy::kConservative);
      rounds += 1;
      round_energy_mj.Add(round.energy_mj);
      round_messages.Add(static_cast<double>(round.messages));

      FailureRoundResult failure = RunRoundWithFailures(
          lifecycle.compiled(), lifecycle.workload().functions,
          SampleLinkFailures(topology, stability, rng), EnergyModel{});
      if (failure.contributions_total > 0) {
        delivery_pct.Add(
            100.0 * static_cast<double>(failure.contributions_delivered) /
            static_cast<double>(failure.contributions_total));
      }
    }
    timeline.AddRow({std::to_string(rounds),
                     Table::Num(round_energy_mj.mean()),
                     Table::Num(round_messages.mean(), 1),
                     std::to_string(changes), std::to_string(delta_bytes),
                     Table::Num(delivery_pct.mean(), 1)});
  }
  timeline.Print(std::cout);

  std::printf(
      "\nafter %d rounds: %lld workload changes re-optimized %lld edges "
      "(%lld reused) and shipped %lld node images + %lld epoch bumps "
      "(%lld bytes);\nevery control signal across all rounds verified "
      "against direct evaluation.\n",
      rounds, static_cast<long long>(changes),
      static_cast<long long>(edges_reoptimized),
      static_cast<long long>(edges_reused),
      static_cast<long long>(images_shipped),
      static_cast<long long>(bumps_shipped),
      static_cast<long long>(delta_bytes));
  return 0;
}
