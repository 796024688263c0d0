// Stability-aware routing ablation (paper section 3: routes should adapt
// "if stability of certain routes have changed significantly"). Sweeping
// the instability penalty in the link cost, measure route length, mean link
// stability along routes, failure-free round energy, and delivery
// completeness under sampled transient failures.

#include <memory>

#include "harness.h"

int main() {
  using namespace m2m;
  Topology topology = MakeGreatDuckIslandLike();
  LinkStabilityModel stability(topology, 51);
  WorkloadSpec spec;
  spec.destination_count = 14;
  spec.sources_per_destination = 15;
  spec.dispersion = 0.9;
  spec.seed = 8600;
  Workload workload = GenerateWorkload(topology, spec);

  Table table({"penalty", "mean_route_hops", "mean_link_stability",
               "round_mJ", "delivery_pct"});
  for (double penalty : {0.0, 1.0, 2.0, 4.0, 8.0}) {
    PathSystem paths(topology, 0x5eed,
                     penalty == 0.0
                         ? PathSystem::LinkCostFn(nullptr)
                         : StabilityAwareLinkCost(stability, penalty));
    auto forest =
        std::make_shared<const MulticastForest>(paths, workload.tasks);
    GlobalPlan plan = BuildPlan(forest, workload.functions, {});
    CompiledPlan compiled = CompiledPlan::Compile(plan, workload.functions);
    PlanExecutor executor(std::make_shared<CompiledPlan>(compiled),
                          workload.functions, EnergyModel{});
    ReadingGenerator readings(topology.node_count(), 37);
    double round_mj = executor.RunRound(readings.values()).energy_mj;

    // Route statistics over all (source, destination) pairs.
    double hop_total = 0.0;
    double stability_total = 0.0;
    int64_t pair_count = 0;
    int64_t link_count = 0;
    for (const Task& task : workload.tasks) {
      for (NodeId s : task.sources) {
        if (s == task.destination) continue;
        std::vector<NodeId> path = paths.Path(s, task.destination);
        hop_total += static_cast<double>(path.size()) - 1;
        ++pair_count;
        for (size_t i = 0; i + 1 < path.size(); ++i) {
          stability_total += stability.stability(path[i], path[i + 1]);
          ++link_count;
        }
      }
    }

    // Delivery under sampled link failures (plans are hop-pinned here, so
    // stability-aware routes pay off directly).
    Rng rng(38);
    int64_t complete = 0;
    int64_t total = 0;
    for (int round = 0; round < 40; ++round) {
      FailureRoundResult result = RunRoundWithFailures(
          compiled, workload.functions,
          SampleLinkFailures(topology, stability, rng), EnergyModel{});
      complete += result.contributions_delivered;
      total += result.contributions_total;
    }
    table.AddRow({Table::Num(penalty, 1),
                  Table::Num(hop_total / pair_count, 2),
                  Table::Num(stability_total / link_count, 3),
                  Table::Num(round_mj), Table::Num(100.0 * complete / total,
                                                   1)});
  }
  m2m::bench::EmitTable(
      "Stability-aware routing — trading hops for dependable links",
      "GDI-like 68-node network, 14 destinations x 15 sources; link cost = "
      "1 + penalty * (1 - stability); 40 failure-sampled rounds",
      table);
  return 0;
}
