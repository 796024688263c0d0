#ifndef M2M_CORE_SYSTEM_H_
#define M2M_CORE_SYSTEM_H_

#include <memory>
#include <optional>

#include "plan/consistency.h"
#include "plan/node_tables.h"
#include "plan/planner.h"
#include "routing/milestones.h"
#include "routing/path_system.h"
#include "sim/executor.h"
#include "workload/workload.h"

namespace m2m {

/// Options for assembling a System.
struct SystemOptions {
  PlannerOptions planner;
  MergePolicy merge = MergePolicy::kGreedyMergePerEdge;
  /// Milestone predicate; nullopt = every node is a milestone (optimize on
  /// physical one-hop edges, the paper's default setting).
  std::optional<MilestoneSelector> milestones;
};

/// One-stop facade: topology + workload in, routed / optimized / compiled
/// plan out, with an executor factory for simulation. This is the API the
/// examples and experiment harnesses use.
class System {
 public:
  /// CHECKs that the assembled plan satisfies Theorem 1 (consistency).
  System(Topology topology, Workload workload, SystemOptions options = {});

  System(const System&) = default;
  System& operator=(const System&) = default;
  System(System&&) noexcept = default;
  System& operator=(System&&) noexcept = default;

  const Topology& topology() const { return *topology_; }
  const Workload& workload() const { return workload_; }
  const PathSystem& paths() const { return *paths_; }
  const MulticastForest& forest() const { return *forest_; }
  std::shared_ptr<const MulticastForest> forest_ptr() const {
    return forest_;
  }
  const GlobalPlan& plan() const { return compiled_->plan(); }
  const CompiledPlan& compiled() const { return *compiled_; }
  const SystemOptions& options() const { return options_; }

  /// Builds a (stateful) executor over the compiled plan.
  PlanExecutor MakeExecutor(const EnergyModel& energy = {}) const;

  /// Convenience: mean per-round radio energy (mJ) over `rounds` full
  /// recomputation rounds with random readings.
  double AverageRoundEnergyMj(int rounds, uint64_t seed,
                              const EnergyModel& energy = {}) const;

 private:
  std::shared_ptr<const Topology> topology_;
  Workload workload_;
  SystemOptions options_;
  std::shared_ptr<const PathSystem> paths_;
  std::shared_ptr<const MulticastForest> forest_;
  std::shared_ptr<const CompiledPlan> compiled_;
};

}  // namespace m2m

#endif  // M2M_CORE_SYSTEM_H_
