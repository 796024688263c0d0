#include "harness.h"

#include <fstream>
#include <iostream>
#include <memory>

#include "common/flags.h"
#include "common/thread_pool.h"

namespace m2m::bench {

namespace {

double PlanEnergy(std::shared_ptr<const MulticastForest> forest,
                  const Workload& workload, PlanStrategy strategy,
                  int node_count) {
  PlannerOptions options;
  options.strategy = strategy;
  GlobalPlan plan = BuildPlan(forest, workload.functions, options);
  CompiledPlan compiled = CompiledPlan::Compile(plan, workload.functions);
  PlanExecutor executor(std::make_shared<CompiledPlan>(compiled),
                        workload.functions, EnergyModel{});
  ReadingGenerator readings(node_count, /*seed=*/17);
  return executor.RunRound(readings.values()).energy_mj;
}

}  // namespace

AlgorithmEnergies MeasureAlgorithms(const Topology& topology,
                                    const Workload& workload,
                                    bool include_flood) {
  PathSystem paths(topology);
  auto forest =
      std::make_shared<const MulticastForest>(paths, workload.tasks);
  AlgorithmEnergies result;
  result.optimal_mj = PlanEnergy(forest, workload, PlanStrategy::kOptimal,
                                 topology.node_count());
  result.multicast_mj = PlanEnergy(
      forest, workload, PlanStrategy::kMulticastOnly, topology.node_count());
  result.aggregation_mj =
      PlanEnergy(forest, workload, PlanStrategy::kAggregationOnly,
                 topology.node_count());
  if (include_flood) {
    result.flood_mj =
        SimulateFloodRound(topology, workload.DistinctSources(),
                           EnergyModel{})
            .energy_mj;
  }
  return result;
}

void EmitTable(const std::string& experiment_id, const std::string& setup,
               const Table& table) {
  std::cout << "== " << experiment_id << " ==\n" << setup << "\n\n";
  table.Print(std::cout);
  std::cout << "\nCSV:\n";
  table.PrintCsv(std::cout);
  std::cout << std::endl;
}

bool MaybeWriteMetricsJson(int argc, const char* const argv[],
                           const obs::MetricsRegistry& registry) {
  FlagParser flags(argc, argv);
  const std::string path = flags.GetString(
      "metrics-json", "",
      "write an m2m.metrics.v1 snapshot of the run's metrics to this path");
  if (path.empty()) return false;
  std::ofstream out(path);
  if (!out) {
    std::cerr << "warning: cannot open --metrics-json path " << path << "\n";
    return false;
  }
  out << registry.ToJson() << "\n";
  std::cout << "metrics snapshot written to " << path << std::endl;
  return true;
}

int ApplyParallelismFlags(int argc, const char* const argv[]) {
  FlagParser flags(argc, argv);
  const int threads = static_cast<int>(flags.GetInt(
      "threads", 1, "worker threads for planning and round execution"));
  const int shards = static_cast<int>(flags.GetInt(
      "shards", 0, "work partitions per parallel region (0 = threads)"));
  SetGlobalParallelism(threads, shards);
  return GlobalThreadCount();
}

}  // namespace m2m::bench
