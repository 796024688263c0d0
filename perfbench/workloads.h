#ifndef M2M_PERFBENCH_WORKLOADS_H_
#define M2M_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/m2m.h"
#include "util.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

/// 100k nodes, 64 x 5 uniform queries, clean-link lossy rounds.
RunResult RunBulk(const Options& options, Tracer& tracer);
/// 1000 nodes, 16 x 8 dispersion queries, self-healing rounds under
/// persistent faults and Gilbert-Elliott loss.
RunResult RunHeal(const Options& options, Tracer& tracer);
/// 10k nodes, 32 x 8 uniform queries, lifecycle churn one mutation at a time.
RunResult RunChurn(const Options& options, Tracer& tracer);

/// Every attempt delivers, every node is alive.
m2m::LossyLinkModel CleanLinks();

/// True iff every task's destination has a value equal (within the 32-bit
/// wire tolerance) to its query evaluated directly over `readings`.
bool MatchesDirect(const m2m::Workload& workload,
                   const std::vector<double>& readings,
                   const std::unordered_map<m2m::NodeId, double>& values);

/// The plan-layer state a lifecycle commit advances.
struct PlanState {
  m2m::Workload workload;
  std::shared_ptr<const m2m::GlobalPlan> plan;
  std::vector<std::vector<uint8_t>> images;
};

/// Outcome of one commit replayed through the public calls
/// QueryLifecycleManager::Commit makes.
struct ReplayOutcome {
  bool admitted = false;
  /// Theorem 1 consistency held and the changed edges lay inside the
  /// Corollary 1 predicted set.
  bool valid = true;
  m2m::UpdateStats stats;
  int images_shipped = 0;
  int bumps_shipped = 0;
  int64_t delta_bytes = 0;
  /// The committed state (meaningful when admitted).
  PlanState next;
};

/// Replays one commit from `from` to the workload `next`: ReplanForWorkload,
/// FindConsistencyViolations + PredictedPerturbedEdges, Compile,
/// CheckPlanBudgets, then image encode + DiffNodeImages. Each call is a span.
/// Traced runs use it to split a manager commit into per-layer times; its
/// result must equal the manager's.
ReplayOutcome ReplayCommit(const m2m::Topology& topology,
                           const m2m::PathSystem& paths, const PlanState& from,
                           const m2m::Workload& next, uint32_t epoch,
                           Tracer& tracer);

/// Traced-run probe: times the stages the workload's own loop does not run
/// (forest and plan at 1 and 4 threads, compile, install, and the 4-thread
/// lossy, byte-level, event-compat, analytic and metrics-attached rounds) on
/// this workload's topology and queries. Output mismatches fail the run.
/// Its spans sit under one diagnostic span, outside the layer self times.
void RunLayerProbe(const m2m::Topology& topology,
                   const m2m::Workload& workload, Tracer& tracer,
                   RunResult& result);

/// Appends the per-layer metrics that every workload reports from its
/// spans (median span durations, layer self times).
void AddSpanMetrics(const Tracer& tracer, RunResult& result);

}  // namespace perfbench

#endif  // M2M_PERFBENCH_WORKLOADS_H_
