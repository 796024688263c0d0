// Milestone ablation (paper section 3, "Flexibility Trade-Off in Routing
// using Milestones"): sweeping the milestone stability threshold from
// "every node" to "endpoints only", measure (a) the plan's failure-free
// round energy (more milestones = more aggregation opportunities) and (b)
// delivery completeness under sampled transient link failures (fewer
// pinned hops = more routing flexibility).

#include "harness.h"

namespace {

using namespace m2m;

struct MilestoneNumbers {
  int milestones = 0;
  double round_mj = 0.0;
  double delivery_pct = 0.0;
  double contribution_pct = 0.0;
  double failure_round_mj = 0.0;
};

MilestoneNumbers Measure(const Topology& topology, const Workload& workload,
                         const LinkStabilityModel& stability,
                         std::optional<MilestoneSelector> selector,
                         bool backup_relay = false) {
  SystemOptions options;
  options.milestones = selector;
  System system(topology, workload, options);
  MilestoneNumbers numbers;
  numbers.milestones = selector.has_value()
                           ? selector->milestone_count()
                           : topology.node_count();
  ReadingGenerator readings(topology.node_count(), 21);
  numbers.round_mj =
      system.MakeExecutor().RunRound(readings.values()).energy_mj;

  RedundancyOptions redundancy;
  redundancy.backup_relay = backup_relay;
  Rng rng(22);
  int64_t complete = 0;
  int64_t total = 0;
  int64_t contributions = 0;
  int64_t contributions_total = 0;
  double energy = 0.0;
  const int rounds = 40;
  for (int round = 0; round < rounds; ++round) {
    FailureRoundResult result = RunRoundWithFailures(
        system.compiled(), workload.functions,
        SampleLinkFailures(topology, stability, rng), EnergyModel{},
        redundancy);
    complete += result.destinations_complete;
    total += result.destinations_total;
    contributions += result.contributions_delivered;
    contributions_total += result.contributions_total;
    energy += result.energy_mj;
  }
  numbers.delivery_pct = 100.0 * complete / total;
  numbers.contribution_pct = 100.0 * contributions / contributions_total;
  numbers.failure_round_mj = energy / rounds;
  return numbers;
}

}  // namespace

int main() {
  Topology topology = MakeGreatDuckIslandLike();
  LinkStabilityModel stability(topology, 31);
  WorkloadSpec spec;
  spec.destination_count = 14;
  spec.sources_per_destination = 15;
  spec.dispersion = 0.9;
  spec.seed = 6200;
  Workload workload = GenerateWorkload(topology, spec);

  Table table({"policy", "milestones", "round_mJ", "delivery_pct",
               "contribution_pct", "failure_round_mJ"});
  auto add_row = [&](const std::string& name,
                     std::optional<MilestoneSelector> selector,
                     bool backup_relay = false) {
    MilestoneNumbers numbers = Measure(topology, workload, stability,
                                       std::move(selector), backup_relay);
    table.AddRow({name, std::to_string(numbers.milestones),
                  Table::Num(numbers.round_mj),
                  Table::Num(numbers.delivery_pct, 1),
                  Table::Num(numbers.contribution_pct, 1),
                  Table::Num(numbers.failure_round_mj)});
  };
  add_row("all_nodes", std::nullopt);
  add_row("all_nodes+backup_relay", std::nullopt, /*backup_relay=*/true);
  for (double threshold : {0.80, 0.84, 0.87, 0.90}) {
    add_row("stability>=" + Table::Num(threshold, 2),
            MilestoneSelector::StabilityThreshold(topology, stability,
                                                  threshold));
  }
  add_row("endpoints_only",
          MilestoneSelector::EndpointsOnly(topology.node_count()));

  m2m::bench::EmitTable(
      "Milestone ablation — aggregation opportunity vs routing flexibility",
      "GDI-like 68-node network, 14 destinations x 15 sources; 40 "
      "failure-sampled rounds per policy",
      table);
  return 0;
}
