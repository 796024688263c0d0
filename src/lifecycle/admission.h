#ifndef M2M_LIFECYCLE_ADMISSION_H_
#define M2M_LIFECYCLE_ADMISSION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/ids.h"
#include "plan/node_tables.h"
#include "sim/energy_model.h"
#include "topology/topology.h"

namespace m2m {

/// Why a lifecycle mutation was admitted or rejected. Structural reasons
/// come from validating the request against the catalog; budget reasons
/// come from evaluating the *candidate* plan the mutation would produce
/// against the deployment's configured capacity.
enum class AdmissionReason : uint8_t {
  kAdmitted,
  // --- Structural (request vs. catalog) ---------------------------------
  kDuplicateDestination,  ///< AdmitQuery for a destination already served.
  kUnknownDestination,    ///< Retire/Modify for a destination not served.
  kDuplicateSource,       ///< AddSource for a source already present.
  kUnknownSource,         ///< RemoveSource for a source not present.
  kEmptySourceSet,        ///< Admit with no sources / remove last source.
  kInvalidNode,           ///< Node id out of range, or dest as own source.
  kNoAliveSources,        ///< Every requested source is believed dead.
  // --- Budget (candidate plan vs. configured capacity) ------------------
  kStateBound,    ///< Theorem 3: total table entries over the state bound.
  kTdmaCapacity,  ///< Round schedule would exceed the TDMA slot budget.
  kEnergyBudget,  ///< Some node's per-round radio energy over budget.
  /// Battery-aware lifetime gate: under the candidate plan's steady-state
  /// drain, some node's residual battery dies before the deployment's
  /// declared lifetime budget.
  kBatteryLifetime,
  // --- Tenant policy (multi-tenant frontend, lifecycle/tenant.h) --------
  kTenantUnknown,  ///< Request from a tenant that was never registered.
  kTenantQuota,    ///< A per-tenant QoS quota would be exceeded.
  kSharedQuery,    ///< Source mutation on a query other tenants still hold.
};

std::string ToString(AdmissionReason reason);

/// Configured capacity the admission layer enforces on candidate plans.
/// Zero disables a limit. The defaults enforce only the Theorem 3 bound,
/// which is not a tunable: it is the paper's guarantee that total state
/// stays within a constant factor of min(sum |T_s|, sum |A_d|).
struct AdmissionLimits {
  /// Theorem 3 constant: reject when total table entries exceed
  /// state_bound_factor * min(sum |T_s|, sum |A_d|). The repo's standing
  /// regression (node_tables_test) holds factor 6 for every generated
  /// workload; admitting past it would break the theorem's contract.
  double state_bound_factor = 6.0;
  /// Maximum TDMA slots per round (round length the MAC can sustain).
  int max_tdma_slots = 0;
  /// Maximum per-node radio energy per round, in millijoules.
  double max_node_energy_mj = 0.0;
  /// Battery-aware lifetime gate (0 disables): minimum number of rounds
  /// every node's residual charge must survive under the candidate plan's
  /// steady-state per-round drain (plus `idle_mj_per_round`). Requires
  /// `node_residual_mj`.
  int lifetime_budget_rounds = 0;
  /// Residual battery per node in millijoules, indexed by node id (the
  /// base station's in-band prediction, not the physical ledger). Must
  /// cover every node when the lifetime gate is enabled.
  std::vector<double> node_residual_mj;
  /// Flat non-radio drain added to every node's per-round drain when
  /// evaluating the lifetime gate.
  double idle_mj_per_round = 0.0;
  EnergyModel energy;
};

/// Outcome of one admission check or lifecycle mutation.
struct AdmissionDecision {
  bool admitted = false;
  AdmissionReason reason = AdmissionReason::kAdmitted;
  /// Human-readable context for rejections.
  std::string detail;
  /// Node that tripped a per-node budget (energy), else kInvalidNode.
  NodeId offending_node = kInvalidNode;
  /// For budget rejections: the value the candidate plan would reach and
  /// the configured limit it violates.
  double observed = 0.0;
  double limit = 0.0;

  static AdmissionDecision Admit();
  static AdmissionDecision Reject(AdmissionReason reason,
                                  std::string detail);
};

/// Evaluates a candidate compiled plan against the configured budgets:
/// Theorem 3 state bound, TDMA slot capacity, per-node round energy,
/// battery lifetime — in that order, reporting the first violation. Both
/// energy gates evaluate `CompiledRoundEnergyMj`. `functions` is not read:
/// unit byte sizes are already baked into the compiled schedule.
/// Read-only: callers decide whether to commit or discard the candidate.
AdmissionDecision CheckPlanBudgets(const CompiledPlan& compiled,
                                   const FunctionSet& functions,
                                   const Topology& topology,
                                   const AdmissionLimits& limits);

}  // namespace m2m

#endif  // M2M_LIFECYCLE_ADMISSION_H_
