// Mobility experiment: what does continuous movement cost the self-healing
// control plane, and does repair work stay local as the network grows?
// Sweeps drift speed x network size (density-constant scaling series) with
// the partition-aware runtime: moving nodes break and re-make links, the
// detector discovers the churn in-band, and every replan patches the plan
// incrementally. Reported per cell: movement churn (link breaks/makes),
// replans, the incremental planner's edge split (re-optimized vs reused —
// the Corollary-1 locality measure), control-plane bytes, and
// partition/degradation exposure. The headline claim: the re-optimized
// share of plan edges grows with movement rate but stays flat in network
// size — a drifting node perturbs its neighborhood, not the deployment.
// Results also land in BENCH_mobility.json.

#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

#include "harness.h"
#include "sim/mobility_sim.h"
#include "sim/self_healing.h"
#include "topology/mobility.h"

int main(int argc, char** argv) {
  using namespace m2m;
  const std::vector<int> sizes = {68, 150, 300};
  const std::vector<double> speeds = {0.0, 2.0, 5.0, 10.0};
  const int kRounds = 30;
  std::vector<Topology> topologies = MakeScalingSeries(sizes, 6100);

  Table table({"speed_m_per_round", "nodes", "link_breaks", "link_makes",
               "replans", "edges_reopt", "edges_reused", "reopt_share_pct",
               "control_kb", "parted_node_rounds", "degraded_rounds"});
  std::ofstream json("BENCH_mobility.json");
  json << "{\n  \"experiment\": \"mobility\",\n"
       << "  \"setup\": \"density-constant scaling series; 5 destinations x "
          "5 sources; velocity-drift mobility with anchored base and "
          "destinations; partition-aware self-healing runtime, perfect "
          "radios (all loss is movement); " << kRounds << " rounds\",\n"
       << "  \"rows\": [\n";

  obs::MetricsRegistry all_metrics;  // Cross-cell snapshot for --metrics-json.
  bool first_row = true;
  for (size_t t = 0; t < topologies.size(); ++t) {
    const Topology& topology = topologies[t];
    WorkloadSpec spec;
    spec.destination_count = 5;
    spec.sources_per_destination = 5;
    spec.seed = 6200 + static_cast<uint64_t>(t);
    Workload workload = GenerateWorkload(topology, spec);
    NodeId base = PickBaseStation(topology);
    std::vector<NodeId> anchored;
    for (const Task& task : workload.tasks) {
      anchored.push_back(task.destination);
    }
    if (std::find(anchored.begin(), anchored.end(), base) == anchored.end()) {
      anchored.push_back(base);
    }

    for (double speed : speeds) {
      MobilityOptions mobility_options;
      mobility_options.model = MobilityModel::kVelocityDrift;
      mobility_options.rounds = kRounds;
      mobility_options.speed_m_per_round = speed;
      mobility_options.anchored = anchored;
      mobility_options.seed = 6300 + static_cast<uint64_t>(t);
      MobilityTrace trace = MobilityTrace::Generate(topology, mobility_options);

      SelfHealingOptions options;
      options.partition_aware = true;
      obs::MetricsRegistry metrics;
      MobilityMetricHandles handles = RegisterMobilityMetrics(metrics);
      SelfHealingRuntime runtime(topology, workload, base, options);
      runtime.set_metrics(&metrics);

      int64_t parted_node_rounds = 0;
      int64_t degraded_rounds = 0;
      for (int round = 0; round < kRounds; ++round) {
        ReadingGenerator readings(topology.node_count(),
                                  6400 + static_cast<uint64_t>(round));
        LossyLinkModel physical;
        physical.attempt_delivers = [](NodeId, NodeId, int) { return true; };
        physical = WithMobility(physical, trace, round);
        SelfHealingRoundResult result =
            runtime.RunRound(round, readings.values(), physical);
        RecordMobilityRound(trace, round, metrics, handles);
        parted_node_rounds +=
            static_cast<int64_t>(result.believed_partitioned.size());
        for (const auto& [destination, status] : result.partition_status) {
          if (status.degraded) {
            ++degraded_rounds;
            break;
          }
        }
      }

      const int64_t replans = metrics.Total("heal.replans");
      const int64_t reopt = metrics.Total("heal.replan_edges_reoptimized");
      const int64_t reused = metrics.Total("heal.replan_edges_reused");
      const double reopt_share =
          reopt + reused > 0
              ? 100.0 * static_cast<double>(reopt) /
                    static_cast<double>(reopt + reused)
              : 0.0;
      const double control_kb =
          static_cast<double>(metrics.Total("heal.control_payload_bytes")) /
          1024.0;
      table.AddRow({Table::Num(speed, 0), std::to_string(topology.node_count()),
                    std::to_string(trace.total_breaks()),
                    std::to_string(trace.total_makes()),
                    std::to_string(replans), std::to_string(reopt),
                    std::to_string(reused), Table::Num(reopt_share, 1),
                    Table::Num(control_kb, 1), std::to_string(parted_node_rounds),
                    std::to_string(degraded_rounds)});
      json << (first_row ? "" : ",\n") << "    {\"speed_m_per_round\": "
           << speed << ", \"nodes\": " << topology.node_count()
           << ", \"link_breaks\": " << trace.total_breaks()
           << ", \"link_makes\": " << trace.total_makes()
           << ", \"replans\": " << replans
           << ", \"edges_reoptimized\": " << reopt
           << ", \"edges_reused\": " << reused
           << ", \"reopt_share_pct\": " << Table::Num(reopt_share, 1)
           << ", \"control_kb\": " << Table::Num(control_kb, 1)
           << ", \"partitioned_node_rounds\": " << parted_node_rounds
           << ", \"degraded_rounds\": " << degraded_rounds << "}";
      first_row = false;

      // Fold the cell's mobility counters into the cross-cell registry so
      // --metrics-json carries the whole sweep.
      obs::MetricHandle breaks = all_metrics.Counter("mobility.link_breaks");
      obs::MetricHandle makes = all_metrics.Counter("mobility.link_makes");
      all_metrics.Add(breaks, trace.total_breaks());
      all_metrics.Add(makes, trace.total_makes());
    }
  }
  json << "\n  ],\n  \"claim\": \"re-optimized edge share grows with "
          "movement rate and stays roughly flat in network size "
          "(Corollary 1: repair is local to the moved neighborhood)\"\n}\n";
  bench::MaybeWriteMetricsJson(argc, argv, all_metrics);
  bench::EmitTable(
      "mobility",
      "velocity-drift sweep: speed x density-constant network size; "
      "partition-aware self-healing; JSON copy in BENCH_mobility.json",
      table);
  return 0;
}
