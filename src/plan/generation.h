#ifndef M2M_PLAN_GENERATION_H_
#define M2M_PLAN_GENERATION_H_

#include <cstdint>
#include <vector>

#include "plan/dissemination.h"

namespace m2m {

/// A base station's live plan: the compiled plan, the functions it was
/// compiled with (kept apart from the caller's workload, which may move on
/// before the next commit), and every node's wire image. Both plan
/// writers, the query lifecycle manager and the self-healing runtime,
/// commit through it: Propose, the caller's own gates, Adopt.
class PlanGeneration {
 public:
  /// A replanned, checked and compiled successor of the live plan.
  struct Proposal {
    CompiledPlan compiled;
    FunctionSet functions;
    UpdateStats stats;
    /// Corollary 1: the predicted perturbation set and the edges the plan
    /// actually changed on (a subset).
    std::vector<DirectedEdge> predicted_edges;
    std::vector<DirectedEdge> divergent_edges;
  };

  /// Builds the forest of `tasks` over `paths`, plans, compiles at
  /// `plan_epoch` and encodes every node.
  PlanGeneration(const PathSystem& paths, std::vector<Task> tasks,
                 FunctionSet functions, uint32_t plan_epoch,
                 const PlannerOptions& options = {});

  /// ReplanForWorkload from the live plan, CHECKs Theorem 1 and the
  /// Corollary 1 subset, and compiles at `plan_epoch`.
  Proposal Propose(const PathSystem& paths, std::vector<Task> tasks,
                   FunctionSet functions, uint32_t plan_epoch) const;

  /// Makes `proposal` live. Re-encodes only the nodes that
  /// NodesWithPossiblyChangedImages marks and restamps every other image's
  /// epoch in place; returns what DiffNodeImages would give.
  std::vector<NodeImageDelta> Adopt(Proposal proposal);

  const CompiledPlan& compiled() const { return compiled_; }
  const std::vector<std::vector<uint8_t>>& images() const { return images_; }

 private:
  CompiledPlan compiled_;
  FunctionSet functions_;
  std::vector<std::vector<uint8_t>> images_;
};

}  // namespace m2m

#endif  // M2M_PLAN_GENERATION_H_
