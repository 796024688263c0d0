#include "plan/generation.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/check.h"
#include "plan/consistency.h"
#include "plan/serialization.h"

namespace m2m {

PlanGeneration::PlanGeneration(const PathSystem& paths,
                               std::vector<Task> tasks, FunctionSet functions,
                               uint32_t plan_epoch,
                               const PlannerOptions& options)
    : compiled_(CompiledPlan::Compile(
          BuildPlan(std::make_shared<MulticastForest>(paths, std::move(tasks)),
                    functions, options),
          functions, MergePolicy::kGreedyMergePerEdge, plan_epoch)),
      functions_(std::move(functions)),
      images_(EncodeAllNodeStates(compiled_, functions_)) {}

PlanGeneration::Proposal PlanGeneration::Propose(const PathSystem& paths,
                                                 std::vector<Task> tasks,
                                                 FunctionSet functions,
                                                 uint32_t plan_epoch) const {
  const GlobalPlan& live = compiled_.plan();
  UpdateStats stats;
  GlobalPlan plan =
      ReplanForWorkload(live, paths, std::move(tasks), functions, &stats);
  M2M_CHECK(FindConsistencyViolations(plan).empty())
      << "candidate plan violates Theorem 1 consistency";
  std::vector<DirectedEdge> divergent = DivergentEdgeKeys(live, plan);
  std::vector<DirectedEdge> predicted =
      PredictedPerturbedEdges(live, functions_, plan, functions);
  for (const DirectedEdge& edge : divergent) {
    M2M_CHECK(std::binary_search(predicted.begin(), predicted.end(), edge))
        << "edge " << edge.tail << "->" << edge.head
        << " changed outside the Corollary 1 predicted perturbation set";
  }
  CompiledPlan compiled = CompiledPlan::Compile(
      std::move(plan), functions, MergePolicy::kGreedyMergePerEdge,
      plan_epoch);
  return Proposal{std::move(compiled), std::move(functions), stats,
                  std::move(predicted), std::move(divergent)};
}

std::vector<NodeImageDelta> PlanGeneration::Adopt(Proposal proposal) {
  const CompiledPlan& next = proposal.compiled;
  const std::vector<uint8_t> reencode = NodesWithPossiblyChangedImages(
      compiled_, functions_, next, proposal.functions);
  std::vector<NodeImageDelta> deltas;
  // Re-encoded images go through one buffer and are copied into the live
  // image's storage, which allocates only when an image outgrows it.
  std::vector<uint8_t> fresh;
  for (NodeId n = 0; n < next.node_count(); ++n) {
    std::vector<uint8_t>& image = images_[n];
    bool changed = false;
    if (reencode[n] != 0) {
      EncodeNodeStateInto(next.state(n), proposal.functions,
                          next.plan_epoch(), fresh);
      changed = !ImageContentsEqual(image, fresh);
      image.assign(fresh.begin(), fresh.end());
    } else {
      RestampImageEpoch(image, next.plan_epoch());
    }
    // A node takes part iff it holds state in either plan.
    if (compiled_.state(n).entry_count() != 0 ||
        next.state(n).entry_count() != 0) {
      deltas.push_back(NodeImageDelta{n, changed});
    }
  }
  compiled_ = std::move(proposal.compiled);
  functions_ = std::move(proposal.functions);
  return deltas;
}

}  // namespace m2m
