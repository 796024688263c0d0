#ifndef M2M_SIM_BATTERY_H_
#define M2M_SIM_BATTERY_H_

#include <vector>

#include "common/ids.h"
#include "plan/node_tables.h"
#include "sim/energy_model.h"

namespace m2m {

/// Initial charge configuration for a deployment's batteries.
struct BatteryOptions {
  /// Initial charge per node, in millijoules. 20 J is the radio share of a
  /// pair of AA cells under the Mica2 duty-cycle assumption bench/lifetime
  /// has always used.
  double initial_charge_mj = 20000.0;
  /// Per-node overrides, indexed by node id; used when non-empty (must then
  /// cover every node). Lets tests and benches start individual relays near
  /// exhaustion.
  std::vector<double> initial_charge_mj_per_node;
  /// Flat non-radio drain charged to every non-depleted mortal node each
  /// round (MCU + sensing floor). 0 keeps the ledger radio-only.
  double idle_mj_per_round = 0.0;
  /// Wall-powered nodes (base stations, sinks): never drain, never deplete.
  std::vector<NodeId> immortal_nodes;
};

/// Per-node battery state, drained by executed rounds and read by the fault
/// layer: a node whose drain reaches its initial charge is *depleted* and
/// dies exactly like a crashed node — except deterministically, from the
/// energy the executed plan actually spent. The ledger is the physical
/// ground truth; the base station never reads it directly (it predicts
/// residuals in-band from its own installed plans, see SelfHealingRuntime).
///
/// Drain is tracked as a separate accumulator rather than subtracting from
/// the residual in place: after one charged round, `drained_mj(n)` equals
/// the charged value bit-for-bit (0 + x == x), which is what lets the
/// predicted-vs-executed reconciliation test demand exact equality.
class BatteryLedger {
 public:
  BatteryLedger() = default;
  BatteryLedger(int node_count, const BatteryOptions& options = {});

  int node_count() const { return static_cast<int>(initial_mj_.size()); }

  /// Charges one executed round: node n drains `node_mj[n]` plus the idle
  /// floor (idle applies to nodes not yet depleted when the round started).
  /// Immortal nodes drain nothing. `node_mj` must have node_count entries.
  void ChargeRound(const std::vector<double>& node_mj);

  double initial_mj(NodeId node) const { return initial_mj_[node]; }
  double drained_mj(NodeId node) const { return drained_mj_[node]; }
  /// Remaining charge, clamped at zero.
  double residual_mj(NodeId node) const;
  /// residual / initial in [0, 1]; immortal nodes always report 1.
  double residual_fraction(NodeId node) const;
  /// True iff the node's battery is exhausted (mortal and drain >= charge).
  bool depleted(NodeId node) const;
  bool immortal(NodeId node) const { return immortal_[node]; }
  /// All depleted nodes, ascending.
  std::vector<NodeId> depleted_nodes() const;
  int rounds_charged() const { return rounds_charged_; }
  double total_drain_mj() const;

 private:
  std::vector<double> initial_mj_;
  std::vector<double> drained_mj_;
  std::vector<bool> immortal_;
  double idle_mj_per_round_ = 0.0;
  int rounds_charged_ = 0;
};

/// Per-node radio energy of one full analytic round of `compiled`, in
/// millijoules. Accumulates microjoules over the schedule's messages in
/// schedule order (TX then RX per physical hop) and divides once at the
/// end — the exact operation sequence PlanExecutor uses to charge the
/// ledger on a lossless round, so prediction and execution agree
/// bit-for-bit (regression-tested: floating-point addition order is part of
/// the byte-identity contract). The admission layer's energy and lifetime
/// gates and the base station's in-band residual prediction both use it.
std::vector<double> CompiledRoundEnergyMj(const CompiledPlan& compiled,
                                          const EnergyModel& energy);

}  // namespace m2m

#endif  // M2M_SIM_BATTERY_H_
