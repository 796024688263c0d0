#ifndef M2M_PLAN_CONSISTENCY_H_
#define M2M_PLAN_CONSISTENCY_H_

#include <string>
#include <vector>

#include "plan/node_tables.h"
#include "plan/planner.h"

namespace m2m {

/// Checks the Theorem 1 guarantee on an assembled plan: along every route
/// (s, d), (a) every edge serves the pair (raw s or partial d — i.e. each
/// per-edge solution is a vertex cover), and (b) once an edge stops
/// transmitting s raw, no downstream edge of the route transmits s raw
/// again (a value cannot be recovered after aggregation). Returns
/// human-readable descriptions of all violations (empty = consistent).
std::vector<std::string> FindConsistencyViolations(const GlobalPlan& plan);

/// True iff FindConsistencyViolations is empty.
bool ValidatePlanConsistency(const GlobalPlan& plan);

/// Compares two plans edge by edge, keyed on the milestone-level directed
/// edge: both must cover the same edge set, and matching edges must carry
/// identical raw-source / aggregated-destination choices. Returns
/// human-readable differences (empty = the plans are the same). This is the
/// Corollary 1 check: a local re-plan (UpdatePlan / ReplanForWorkload)
/// after a topology or workload change must equal a from-scratch global
/// re-plan.
std::vector<std::string> FindPlanDivergence(const GlobalPlan& patched,
                                            const GlobalPlan& fresh);

/// True iff FindPlanDivergence is empty.
bool PlansEquivalent(const GlobalPlan& a, const GlobalPlan& b);

/// The milestone-level edge keys on which two plans actually differ:
/// edges present in only one forest, plus shared edges whose raw-source /
/// aggregated-destination choices diverge. Sorted ascending, deduplicated.
/// This is the structured form of FindPlanDivergence, for callers that
/// bound the difference set rather than render it.
std::vector<DirectedEdge> DivergentEdgeKeys(const GlobalPlan& a,
                                            const GlobalPlan& b);

/// Corollary 1's predicted perturbation set for the transition old -> new
/// (topology or workload form): an edge instance can change only if (a) the
/// edge exists in just one forest, or (b) it serves a *perturbed* pair — a
/// (source, destination) pair that was inserted, deleted, re-routed, or
/// whose destination's partial-record unit size changed. Returns the edge
/// keys, in either forest, satisfying (a) or serving a pair in (b); sorted
/// ascending, deduplicated. Any sound incremental planner's change set
/// (DivergentEdgeKeys against the old plan) is a subset of this. Both plan
/// writers, the self-healing runtime and the query lifecycle manager,
/// CHECK that bound on every commit (PlanGeneration::Propose).
std::vector<DirectedEdge> PredictedPerturbedEdges(
    const GlobalPlan& old_plan, const FunctionSet& old_functions,
    const GlobalPlan& new_plan, const FunctionSet& new_functions);

/// Safe-transition precondition for the self-healing epoch protocol: if two
/// plan generations differ in any node's installed tables, they must carry
/// distinct plan epochs — otherwise the runtime's epoch gate cannot tell
/// their packets apart and a mixed-generation round could silently merge
/// partial records produced under different plans. Returns human-readable
/// violations: one entry per content-changed node whenever the two compiled
/// plans share an epoch (empty = the transition is safe to disseminate).
std::vector<std::string> FindEpochTransitionHazards(
    const CompiledPlan& old_compiled, const FunctionSet& old_functions,
    const CompiledPlan& new_compiled, const FunctionSet& new_functions);

}  // namespace m2m

#endif  // M2M_PLAN_CONSISTENCY_H_
