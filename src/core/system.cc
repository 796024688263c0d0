#include "core/system.h"

#include "common/check.h"

namespace m2m {

System::System(Topology topology, Workload workload, SystemOptions options)
    : topology_(std::make_shared<const Topology>(std::move(topology))),
      workload_(std::move(workload)),
      options_(std::move(options)) {
  paths_ = std::make_shared<const PathSystem>(*topology_);
  const MilestoneSelector* milestones =
      options_.milestones.has_value() ? &*options_.milestones : nullptr;
  forest_ = std::make_shared<const MulticastForest>(*paths_, workload_.tasks,
                                                    milestones);
  GlobalPlan plan = BuildPlan(forest_, workload_.functions, options_.planner);
  M2M_CHECK(ValidatePlanConsistency(plan))
      << "assembled plan violates Theorem 1 consistency";
  compiled_ = std::make_shared<const CompiledPlan>(CompiledPlan::Compile(
      std::move(plan), workload_.functions, options_.merge));
}

PlanExecutor System::MakeExecutor(const EnergyModel& energy) const {
  return PlanExecutor(compiled_, workload_.functions, energy);
}

}  // namespace m2m
