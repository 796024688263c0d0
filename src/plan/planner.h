#ifndef M2M_PLAN_PLANNER_H_
#define M2M_PLAN_PLANNER_H_

#include <memory>
#include <vector>

#include "agg/aggregate_function.h"
#include "cover/bipartite_cover.h"
#include "plan/edge_plan.h"
#include "routing/multicast.h"

namespace m2m {

/// Planning strategy. `kOptimal` is the paper's contribution; the other two
/// are the evaluated baselines and correspond to the two trivial covers.
enum class PlanStrategy {
  kOptimal,          ///< Minimum weighted vertex cover per edge.
  kMulticastOnly,    ///< All sources raw; aggregate only at destinations.
  kAggregationOnly,  ///< Aggregate at the earliest opportunity.
};

std::string ToString(PlanStrategy strategy);

struct PlannerOptions {
  PlanStrategy strategy = PlanStrategy::kOptimal;
  /// Seed of the per-(node, role) tiebreaker perturbations; the same seed
  /// must be used for every edge (and for incremental updates) so minima are
  /// consistent across instances (paper section 2.3).
  uint64_t tiebreak_seed = 0xc0ffee;
};

/// A complete many-to-many aggregation plan: one EdgePlan per forest edge.
class GlobalPlan {
 public:
  GlobalPlan(std::shared_ptr<const MulticastForest> forest,
             std::vector<EdgePlan> edge_plans, PlannerOptions options);

  GlobalPlan(const GlobalPlan&) = default;
  GlobalPlan& operator=(const GlobalPlan&) = default;
  GlobalPlan(GlobalPlan&&) noexcept = default;
  GlobalPlan& operator=(GlobalPlan&&) noexcept = default;

  const MulticastForest& forest() const { return *forest_; }
  std::shared_ptr<const MulticastForest> forest_ptr() const {
    return forest_;
  }
  const PlannerOptions& options() const { return options_; }

  const std::vector<EdgePlan>& edge_plans() const { return edge_plans_; }
  const EdgePlan& plan_for(int edge_index) const;

  /// Sum of unit payload bytes over milestone-level edges (each virtual edge
  /// counted once).
  int64_t TotalPayloadBytes() const;
  /// Payload bytes weighted by each edge's physical hop length — the actual
  /// radio bytes when virtual edges span several hops.
  int64_t TotalPhysicalPayloadBytes() const;
  int64_t TotalUnits() const;

 private:
  std::shared_ptr<const MulticastForest> forest_;
  std::vector<EdgePlan> edge_plans_;
  PlannerOptions options_;
};

/// Builds the single-edge optimization instance for `edge` (paper Figure 2):
/// sources/destinations connected through the edge with perturbed
/// raw-value / partial-record weights.
BipartiteInstance BuildEdgeInstance(const ForestEdge& edge,
                                    const FunctionSet& functions,
                                    uint64_t tiebreak_seed);

/// Solves one edge under the given strategy.
EdgePlan SolveEdge(const ForestEdge& edge, const FunctionSet& functions,
                   const PlannerOptions& options);

/// Plans every edge of the forest independently (Theorem 1 makes the
/// combination globally optimal and consistent for kOptimal).
GlobalPlan BuildPlan(std::shared_ptr<const MulticastForest> forest,
                     const FunctionSet& functions,
                     const PlannerOptions& options = {});

/// Bookkeeping from an incremental update.
struct UpdateStats {
  int edges_total = 0;
  int edges_reused = 0;
  int edges_reoptimized = 0;
};

/// Incremental re-optimization (Corollary 1): edges of `forest` whose
/// single-edge inputs are unchanged from `old_plan` keep their solutions;
/// only changed/new edges are re-solved. The result is identical to a full
/// BuildPlan over `forest` (asserted by tests).
GlobalPlan UpdatePlan(const GlobalPlan& old_plan,
                      std::shared_ptr<const MulticastForest> forest,
                      const FunctionSet& functions,
                      UpdateStats* stats = nullptr);

/// Local re-plan (Corollary 1), the one replan entry point for workload
/// and topology changes alike: inserting or deleting queries or individual
/// (source, destination) pairs, and failures or cost changes that re-route
/// pairs, perturb only the edge instances whose bipartite neighborhoods
/// changed, so all other per-edge solutions carry over verbatim. `tasks`
/// and `functions` describe the new workload and `paths` the new routing.
/// When the old forest routes over `paths` (MulticastForest::RoutesOver),
/// the new forest is an update of it that walks only the added pairs;
/// otherwise, as for any new `PathSystem`, it is built from empty. The
/// result equals a from-scratch BuildPlan for the new workload (validate
/// with FindPlanDivergence / PredictedPerturbedEdges when it matters).
GlobalPlan ReplanForWorkload(const GlobalPlan& old_plan,
                             const PathSystem& paths,
                             std::vector<Task> tasks,
                             const FunctionSet& functions,
                             UpdateStats* stats = nullptr);

}  // namespace m2m

#endif  // M2M_PLAN_PLANNER_H_
