// Dynamic adaptation (paper section 3): Corollary 1 says edges whose
// single-edge inputs are unchanged keep their plans, so workload changes
// re-optimize only the affected slice of the network; and milestone routing
// lets the communication layer route around transient link failures without
// touching the plan at all.
//
//   ./dynamic_adaptation

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>

#include "common/table.h"
#include "core/m2m.h"

int main() {
  using namespace m2m;

  Topology topology = MakeGreatDuckIslandLike();
  PathSystem paths(topology);
  WorkloadSpec spec;
  spec.destination_count = 12;
  spec.sources_per_destination = 14;
  spec.dispersion = 0.9;
  spec.seed = 8;
  Workload workload = GenerateWorkload(topology, spec);

  auto forest = std::make_shared<const MulticastForest>(paths,
                                                        workload.tasks);
  GlobalPlan plan = BuildPlan(forest, workload.functions, {});
  std::printf("initial plan: %zu edges, %lld payload bytes/round\n\n",
              forest->edges().size(),
              static_cast<long long>(plan.TotalPayloadBytes()));

  // Churn the workload: nodes die (sources removed) and new nodes are
  // deployed (sources added). Watch how little of the plan re-optimizes.
  Table churn({"step", "change", "edges_total", "reused", "reoptimized",
               "payload_bytes"});
  Rng rng(9);
  for (int step = 0; step < 8; ++step) {
    const Task& task = workload.tasks[rng.UniformInt(workload.tasks.size())];
    NodeId d = task.destination;
    std::string description;
    if (step % 2 == 0 && task.sources.size() > 3) {
      NodeId victim = task.sources[rng.UniformInt(task.sources.size())];
      workload = WithSourceRemoved(workload, victim, d);
      description = "node " + std::to_string(victim) + " died (fed " +
                    std::to_string(d) + ")";
    } else {
      NodeId fresh = kInvalidNode;
      for (NodeId n = 0; n < topology.node_count(); ++n) {
        if (n != d && std::find(task.sources.begin(), task.sources.end(),
                                n) == task.sources.end()) {
          fresh = n;
          break;
        }
      }
      workload = WithSourceAdded(workload, fresh, d, 1.0);
      description = "node " + std::to_string(fresh) + " deployed (feeds " +
                    std::to_string(d) + ")";
    }
    forest = std::make_shared<const MulticastForest>(paths, workload.tasks);
    UpdateStats stats;
    plan = UpdatePlan(plan, forest, workload.functions, &stats);
    churn.AddRow({std::to_string(step), description,
                  std::to_string(stats.edges_total),
                  std::to_string(stats.edges_reused),
                  std::to_string(stats.edges_reoptimized),
                  std::to_string(plan.TotalPayloadBytes())});
  }
  churn.Print(std::cout);

  // Transient failures: a milestone plan keeps delivering because the
  // communication layer may take any live path between milestones.
  LinkStabilityModel stability(topology, 10);
  SystemOptions flexible;
  flexible.milestones =
      MilestoneSelector::StabilityThreshold(topology, stability, 0.86);
  System pinned_system(topology, workload);
  System flexible_system(topology, workload, flexible);

  Rng failures(11);
  int64_t pinned_ok = 0;
  int64_t flexible_ok = 0;
  int64_t total = 0;
  const int rounds = 25;
  for (int round = 0; round < rounds; ++round) {
    Topology live = SampleLinkFailures(topology, stability, failures);
    FailureRoundResult p = RunRoundWithFailures(
        pinned_system.compiled(), workload.functions, live, EnergyModel{});
    FailureRoundResult f = RunRoundWithFailures(
        flexible_system.compiled(), workload.functions, live, EnergyModel{});
    pinned_ok += p.destinations_complete;
    flexible_ok += f.destinations_complete;
    total += p.destinations_total;
  }
  std::printf(
      "\ntransient failures over %d rounds: pinned plan delivered %.1f%% of "
      "aggregates complete, milestone plan %.1f%% (with %d milestones)\n",
      rounds, 100.0 * pinned_ok / total, 100.0 * flexible_ok / total,
      flexible.milestones->milestone_count());
  return 0;
}
