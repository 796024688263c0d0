#ifndef M2M_BENCH_HARNESS_H_
#define M2M_BENCH_HARNESS_H_

#include <string>

#include "common/table.h"
#include "core/m2m.h"
#include "obs/metrics.h"

namespace m2m::bench {

/// Per-algorithm average round energy for one (topology, workload) pair.
/// A full-recomputation round's cost is determined by the plan alone (every
/// unit is transmitted), so a single verified round suffices.
struct AlgorithmEnergies {
  double optimal_mj = 0.0;
  double multicast_mj = 0.0;
  double aggregation_mj = 0.0;
  double flood_mj = 0.0;
};

/// Runs the three plan-based algorithms (sharing one path system and
/// multicast forest) plus flood, all with end-to-end verification of the
/// computed aggregates.
AlgorithmEnergies MeasureAlgorithms(const Topology& topology,
                                    const Workload& workload,
                                    bool include_flood);

/// Emits the table to stdout in both aligned-text and CSV form, labeled with
/// the experiment id so EXPERIMENTS.md can reference the output verbatim.
void EmitTable(const std::string& experiment_id, const std::string& setup,
               const Table& table);

/// Honors a `--metrics-json=<path>` flag: when present, writes the
/// registry's `m2m.metrics.v1` snapshot to the path and returns true.
/// Without the flag (or with an unwritable path) nothing is written.
bool MaybeWriteMetricsJson(int argc, const char* const argv[],
                           const obs::MetricsRegistry& registry);

}  // namespace m2m::bench

#endif  // M2M_BENCH_HARNESS_H_
