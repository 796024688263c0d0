#include "lifecycle/admission.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "plan/tdma.h"
#include "sim/battery.h"

namespace m2m {

std::string ToString(AdmissionReason reason) {
  switch (reason) {
    case AdmissionReason::kAdmitted:
      return "admitted";
    case AdmissionReason::kDuplicateDestination:
      return "duplicate_destination";
    case AdmissionReason::kUnknownDestination:
      return "unknown_destination";
    case AdmissionReason::kDuplicateSource:
      return "duplicate_source";
    case AdmissionReason::kUnknownSource:
      return "unknown_source";
    case AdmissionReason::kEmptySourceSet:
      return "empty_source_set";
    case AdmissionReason::kInvalidNode:
      return "invalid_node";
    case AdmissionReason::kNoAliveSources:
      return "no_alive_sources";
    case AdmissionReason::kStateBound:
      return "state_bound";
    case AdmissionReason::kTdmaCapacity:
      return "tdma_capacity";
    case AdmissionReason::kEnergyBudget:
      return "energy_budget";
    case AdmissionReason::kBatteryLifetime:
      return "battery_lifetime";
    case AdmissionReason::kTenantUnknown:
      return "tenant_unknown";
    case AdmissionReason::kTenantQuota:
      return "tenant_quota";
    case AdmissionReason::kSharedQuery:
      return "shared_query";
  }
  return "unknown";
}

AdmissionDecision AdmissionDecision::Admit() {
  AdmissionDecision decision;
  decision.admitted = true;
  return decision;
}

AdmissionDecision AdmissionDecision::Reject(AdmissionReason reason,
                                            std::string detail) {
  M2M_CHECK(reason != AdmissionReason::kAdmitted);
  AdmissionDecision decision;
  decision.admitted = false;
  decision.reason = reason;
  decision.detail = std::move(detail);
  return decision;
}

AdmissionDecision CheckPlanBudgets(const CompiledPlan& compiled,
                                   const FunctionSet& /*functions*/,
                                   const Topology& topology,
                                   const AdmissionLimits& limits) {
  if (limits.state_bound_factor > 0.0) {
    const StateTotals totals = compiled.ComputeStateTotals();
    const int64_t reference = std::min(totals.sum_multicast_tree_sizes,
                                       totals.sum_aggregation_tree_sizes);
    const double bound =
        limits.state_bound_factor * static_cast<double>(reference);
    if (static_cast<double>(totals.total()) > bound) {
      std::ostringstream detail;
      detail << "Theorem 3 state bound: " << totals.total()
             << " table entries > " << limits.state_bound_factor
             << " * min(sum |T_s| = " << totals.sum_multicast_tree_sizes
             << ", sum |A_d| = " << totals.sum_aggregation_tree_sizes
             << ")";
      AdmissionDecision decision = AdmissionDecision::Reject(
          AdmissionReason::kStateBound, detail.str());
      decision.observed = static_cast<double>(totals.total());
      decision.limit = bound;
      return decision;
    }
  }
  if (limits.max_tdma_slots > 0) {
    const TdmaSchedule tdma = BuildTdmaSchedule(compiled, topology);
    if (tdma.slot_count > limits.max_tdma_slots) {
      std::ostringstream detail;
      detail << "TDMA round needs " << tdma.slot_count << " slots > budget "
             << limits.max_tdma_slots;
      AdmissionDecision decision = AdmissionDecision::Reject(
          AdmissionReason::kTdmaCapacity, detail.str());
      decision.observed = tdma.slot_count;
      decision.limit = limits.max_tdma_slots;
      return decision;
    }
  }
  if (limits.max_node_energy_mj > 0.0) {
    const std::vector<double> node_mj =
        CompiledRoundEnergyMj(compiled, limits.energy);
    for (NodeId node = 0; node < static_cast<NodeId>(node_mj.size());
         ++node) {
      if (node_mj[node] > limits.max_node_energy_mj) {
        std::ostringstream detail;
        detail << "node " << node << " would spend " << node_mj[node]
               << " mJ per round > budget " << limits.max_node_energy_mj;
        AdmissionDecision decision = AdmissionDecision::Reject(
            AdmissionReason::kEnergyBudget, detail.str());
        decision.offending_node = node;
        decision.observed = node_mj[node];
        decision.limit = limits.max_node_energy_mj;
        return decision;
      }
    }
  }
  if (limits.lifetime_budget_rounds > 0) {
    M2M_CHECK_EQ(static_cast<int>(limits.node_residual_mj.size()),
                 compiled.node_count())
        << "the battery lifetime gate needs a residual for every node";
    const std::vector<double> node_mj =
        CompiledRoundEnergyMj(compiled, limits.energy);
    for (NodeId node = 0; node < static_cast<NodeId>(node_mj.size());
         ++node) {
      const double drain_mj = node_mj[node] + limits.idle_mj_per_round;
      if (drain_mj <= 0.0) continue;  // Never drains: infinite lifetime.
      const double survivable_rounds =
          limits.node_residual_mj[node] / drain_mj;
      if (survivable_rounds < limits.lifetime_budget_rounds) {
        std::ostringstream detail;
        detail << "node " << node << " survives " << survivable_rounds
               << " rounds at " << drain_mj << " mJ/round < lifetime budget "
               << limits.lifetime_budget_rounds << " rounds";
        AdmissionDecision decision = AdmissionDecision::Reject(
            AdmissionReason::kBatteryLifetime, detail.str());
        decision.offending_node = node;
        decision.observed = survivable_rounds;
        decision.limit = limits.lifetime_budget_rounds;
        return decision;
      }
    }
  }
  return AdmissionDecision::Admit();
}

}  // namespace m2m
