// Scale sweep for the parallel execution core: threads x network size, up
// to a density-matched 100k-node topology (same average degree as the
// 68-node GDI baseline, paper Figure 6 construction). Per cell it builds
// the full plan (per-edge min-cover solves fan out across the pool) and
// executes one analytic round, and cross-checks that every thread count
// produced byte-identical plan bytes and bit-identical round energy (and
// CHECK-fails when not) — the bench-side echo of
// tests/parallel_determinism_test.cc. Results land in
// BENCH_scale.json. It records no timings: perfbench's `.t4` per-layer rows
// time these layers warm (perfbench/README.md).
//
// Flags: --max-nodes (default 100000), --threads (extra pool width
// appended to the {1,2,4,8} sweep).

#include <algorithm>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/thread_pool.h"
#include "harness.h"

int main(int argc, char** argv) {
  using namespace m2m;
  FlagParser flags(argc, argv);
  const int max_nodes = static_cast<int>(
      flags.GetInt("max-nodes", 100000, "largest network size in the sweep"));
  const int extra_threads = static_cast<int>(flags.GetInt(
      "threads", 0, "extra thread count appended to the {1,2,4,8} sweep"));

  std::vector<int> sizes;
  for (int size : {1000, 10000, max_nodes}) {
    if (size <= max_nodes && (sizes.empty() || size > sizes.back())) {
      sizes.push_back(size);
    }
  }
  std::vector<int> thread_counts = {1, 2, 4, 8};
  if (extra_threads > 0 &&
      std::find(thread_counts.begin(), thread_counts.end(), extra_threads) ==
          thread_counts.end()) {
    thread_counts.push_back(extra_threads);
  }

  std::vector<Topology> series = MakeScalingSeries(sizes, /*seed=*/77);

  std::ofstream json("BENCH_scale.json");
  json << "{\n  \"experiment\": \"scale\",\n"
       << "  \"setup\": \"density-matched uniform networks (GDI average "
          "degree); plan construction + one executed round per thread "
          "count; identical_results asserts byte-equal plan size and "
          "bit-equal round energy across the sweep\",\n"
       << "  \"thread_counts\": [";
  for (size_t i = 0; i < thread_counts.size(); ++i) {
    json << (i ? ", " : "") << thread_counts[i];
  }
  json << "],\n  \"rows\": [\n";

  Table table({"nodes", "links", "forest_edges", "plan_bytes", "round_mJ",
               "identical_results"});
  for (size_t si = 0; si < series.size(); ++si) {
    const Topology& topology = series[si];
    const int n = topology.node_count();
    const bool large = n >= 50000;
    WorkloadSpec spec;
    spec.destination_count = large ? 64 : 32;
    spec.sources_per_destination = large ? 10 : 8;
    spec.selection = SourceSelection::kUniform;
    spec.kind = AggregateKind::kWeightedAverage;
    spec.seed = 7700 + si;
    Workload workload = GenerateWorkload(topology, spec);

    // Shared across thread counts: the forest (and its cached path
    // columns), so each cell differs only in the per-edge cover solves,
    // plan assembly and the executed round.
    PathSystem paths(topology);
    auto forest =
        std::make_shared<const MulticastForest>(paths, workload.tasks);

    ReadingGenerator readings(n, /*seed=*/17);
    int64_t plan_bytes = 0;
    double round_energy_mj = 0.0;
    bool identical = true;
    for (size_t ti = 0; ti < thread_counts.size(); ++ti) {
      ScopedParallelism parallelism(thread_counts[ti]);
      GlobalPlan plan = BuildPlan(forest, workload.functions, {});
      CompiledPlan compiled = CompiledPlan::Compile(plan, workload.functions);
      PlanExecutor executor(std::make_shared<CompiledPlan>(compiled),
                            workload.functions, EnergyModel{});
      const int64_t bytes = plan.TotalPayloadBytes();
      const double energy = executor.RunRound(readings.values()).energy_mj;
      if (ti == 0) {
        plan_bytes = bytes;
        round_energy_mj = energy;
      }
      identical = identical && bytes == plan_bytes &&
                  energy == round_energy_mj;
    }
    M2M_CHECK(identical) << n << " nodes: results differ across thread counts";

    json << (si ? ",\n" : "") << "    {\"nodes\": " << n
         << ", \"links\": " << topology.link_count()
         << ", \"destinations\": " << spec.destination_count
         << ", \"sources_per_destination\": " << spec.sources_per_destination
         << ", \"forest_edges\": " << forest->edges().size()
         << ", \"plan_bytes\": " << plan_bytes
         << ", \"round_energy_mj\": " << Table::Num(round_energy_mj)
         << ", \"identical_results\": " << (identical ? "true" : "false")
         << "}";
    table.AddRow({std::to_string(n), std::to_string(topology.link_count()),
                  std::to_string(forest->edges().size()),
                  std::to_string(plan_bytes), Table::Num(round_energy_mj),
                  identical ? "true" : "false"});
  }
  json << "\n  ]\n}\n";

  bench::EmitTable("Scale — cross-thread identity by network size",
                   "Density-matched networks to " +
                       std::to_string(sizes.back()) +
                       " nodes; plan + one round at each thread count",
                   table);
  return 0;
}
