#ifndef M2M_SIM_EXECUTOR_H_
#define M2M_SIM_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "agg/aggregate_function.h"
#include "obs/metrics.h"
#include "plan/node_tables.h"
#include "sim/battery.h"
#include "sim/energy_model.h"

namespace m2m {

/// Outcome of simulating one timestep.
struct RoundResult {
  /// Plan epoch the round executed under (CompiledPlan::plan_epoch). Every
  /// destination value in this result is attributable to exactly this plan
  /// generation — the analytic mirror of the runtime's epoch gate.
  uint32_t plan_epoch = 0;
  double energy_mj = 0.0;
  /// Milestone-level messages sent (one per forest edge after greedy merge).
  int64_t messages = 0;
  /// Per-hop radio transmissions (a message on a k-hop virtual edge counts
  /// k times).
  int64_t physical_transmissions = 0;
  int64_t units = 0;
  int64_t payload_bytes = 0;
  /// Number of (node, value) override decisions taken (suppressed rounds).
  int64_t overrides = 0;
  /// Worst observed |maintained - true| over destinations (suppressed
  /// rounds; 0 for exact modes).
  double max_abs_error = 0.0;
  /// Radio energy per node (TX + RX), in millijoules.
  std::vector<double> node_energy_mj;
  /// The aggregate each destination computed this round.
  std::unordered_map<NodeId, double> destination_values;

  /// Suppression-aware per-destination coverage (suppressed rounds only).
  /// A suppressed-but-live source still counts as *covered*: its last
  /// transmitted contribution is part of the maintained aggregate, so
  /// silence under suppression is deliberate economy, not data loss — the
  /// semantic that distinguishes this accounting from the lossy runtime's
  /// delivery-based coverage (RuntimeNetwork::LossyResult).
  struct DestinationCoverage {
    int covered = 0;      ///< Sources represented in the maintained value.
    int expected = 0;     ///< Sources in the destination's task.
    int transmitted = 0;  ///< Sources that shipped a delta this round.
    int suppressed = 0;   ///< Live sources that stayed silent (covered).
    double coverage = 1.0;
  };
  std::unordered_map<NodeId, DestinationCoverage> destination_coverage;
};

/// Runtime override policies for temporal suppression (paper section 3 /
/// Figure 7): when the default plan would aggregate a changed raw value at a
/// node, the node may instead keep forwarding it raw. The policy sets how
/// much cheaper the raw option must look locally.
enum class OverridePolicy {
  kNone,          ///< Always follow the default plan.
  /// "More judicious": discounts partials that other changed sources force
  /// onto the wire anyway, and overrides only when raw is no worse.
  kConservative,
  /// Judges each value in isolation; overrides when raw costs <= 0.7x the
  /// partials it replaces.
  kMedium,
  /// Judges each value in isolation; overrides whenever raw is locally no
  /// worse (<= 1.0x).
  kAggressive,
};

std::string ToString(OverridePolicy policy);

/// Link-layer options for full rounds.
struct TransmissionOptions {
  /// Paper section 3 / footnote 1: a raw value that several of a node's
  /// outgoing (one-hop) messages carry can be transmitted once as a local
  /// broadcast with selective listening, instead of once per unicast
  /// message. Partial records are destination-specific and never shared.
  bool use_broadcast = false;
};

/// Executes a compiled many-to-many aggregation plan round by round,
/// charging radio energy and verifying that every destination computes
/// exactly its aggregation function (full rounds) or maintains it within
/// floating-point tolerance (suppressed rounds).
class PlanExecutor {
 public:
  PlanExecutor(std::shared_ptr<const CompiledPlan> compiled,
               FunctionSet functions, EnergyModel energy);

  /// Marks certain hops as free local-bus transfers (no radio energy) —
  /// used by the multi-sensor generalization, where a virtual sensor node
  /// is co-located with its host (workload/multi_sensor.h).
  using FreeLinkFn = std::function<bool(NodeId, NodeId)>;
  void set_free_link(FreeLinkFn free_link) {
    free_link_ = std::move(free_link);
  }

  /// Attaches a battery ledger: every executed round (full, broadcast,
  /// suppressed) then charges each node its radio drain. The per-round
  /// charge is accumulated in microjoules in schedule order and divided
  /// once — on a lossless full round it equals `CompiledRoundEnergyMj`
  /// bit-for-bit (the predicted-vs-executed reconciliation contract). Pass
  /// nullptr to detach. The ledger must outlive the executor.
  void set_battery(BatteryLedger* battery) { battery_ = battery; }
  BatteryLedger* battery() const { return battery_; }

  PlanExecutor(const PlanExecutor&) = default;
  PlanExecutor& operator=(const PlanExecutor&) = default;
  PlanExecutor(PlanExecutor&&) noexcept = default;
  PlanExecutor& operator=(PlanExecutor&&) noexcept = default;

  /// Full recomputation: every source's reading is transmitted per the
  /// plan. Stateless. `readings` is indexed by node id. Destination values
  /// are verified against direct evaluation (CHECK).
  RoundResult RunRound(const std::vector<double>& readings,
                       const TransmissionOptions& options = {}) const;

  /// Primes suppression state: destinations' maintained records and the
  /// last-transmitted readings. Call once before RunSuppressedRound.
  void InitializeState(const std::vector<double>& readings);

  /// Temporal suppression: only changed readings travel, as delta records;
  /// destinations apply the merged deltas to their maintained aggregates.
  /// Requires every function to support linear deltas. Verifies maintained
  /// aggregates against direct evaluation.
  /// `replicated_preagg` enables paper section 3's "more flexible
  /// alternative": every node on a value's multicast path holds its
  /// pre-aggregation functions, so an overridden raw value can still be
  /// folded downstream at the next aggregation point instead of traveling
  /// raw to every destination. Costs extra state
  /// (CountReplicatedPreAggEntries) but caps the override downside.
  RoundResult RunSuppressedRound(const std::vector<double>& new_readings,
                                 const std::vector<bool>& changed,
                                 OverridePolicy policy,
                                 bool replicated_preagg = false);

  /// Threshold-based suppression (paper section 3: continuous maintenance
  /// "up to desired precision"): a source transmits only when its reading
  /// has drifted more than `epsilon` from its last *transmitted* value.
  /// Maintained aggregates are approximate; the executor verifies each stays
  /// within its function's SuppressionErrorBound(epsilon) and reports the
  /// worst observed deviation in RoundResult::max_abs_error.
  RoundResult RunThresholdSuppressedRound(
      const std::vector<double>& new_readings, double epsilon,
      OverridePolicy policy, bool replicated_preagg = false);

  /// Attaches a metrics registry: suppressed rounds then record changed vs
  /// suppressed source counts, override decisions, and transmitted payload
  /// bytes (the paper section 3 suppression quantities). Pass nullptr to
  /// detach. The registry must outlive the executor.
  void set_metrics(obs::MetricsRegistry* metrics);
  obs::MetricsRegistry* metrics() const { return metrics_; }

  /// Maintained aggregate per destination (valid after InitializeState).
  const std::unordered_map<NodeId, double>& current_aggregates() const {
    return current_aggregates_;
  }

  const CompiledPlan& compiled() const { return *compiled_; }
  const EnergyModel& energy_model() const { return energy_; }

  /// Extra pre-aggregation table entries needed to replicate w_{d,s} at
  /// every node downstream of each value's default fold point (the state
  /// price of `replicated_preagg`).
  int64_t CountReplicatedPreAggEntries() const;

 private:
  /// Packs two 32-bit ids into one map key.
  static uint64_t Key(int64_t a, int64_t b) {
    return (static_cast<uint64_t>(a) << 32) | static_cast<uint32_t>(b);
  }

  int PartialUnitBytes(NodeId destination) const;
  /// `battery_uj`, when non-null, additionally accumulates the message's
  /// per-node drain in microjoules (divided once per round before charging
  /// the ledger — matching CompiledRoundEnergyMj's operation order exactly).
  void ChargeMessage(int edge_index, int payload_bytes, RoundResult& result,
                     std::vector<double>* battery_uj = nullptr) const;
  /// Reconstructs, verifies, and evaluates one task's aggregate for a full
  /// round. Touches only the task's own (edge, destination) lattice — the
  /// execution-level face of Theorem 1's per-edge independence — so
  /// RunRound fans tasks out across shards (see RunRound).
  double EvaluateTaskRound(const Task& task,
                           const std::vector<double>& readings) const;
  RoundResult RunSuppressedRoundImpl(const std::vector<double>& new_readings,
                                     const std::vector<bool>& changed,
                                     OverridePolicy policy, double epsilon,
                                     bool replicated_preagg);

  /// Pre-resolved metric handles, registered once in set_metrics.
  struct MetricHandles {
    obs::MetricHandle rounds;
    obs::MetricHandle changed_sources;
    obs::MetricHandle suppressed_sources;
    obs::MetricHandle overrides;
    obs::MetricHandle payload_bytes;
    obs::MetricHandle messages;
  };

  std::shared_ptr<const CompiledPlan> compiled_;
  FunctionSet functions_;
  EnergyModel energy_;
  FreeLinkFn free_link_;
  BatteryLedger* battery_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  MetricHandles handles_;

  /// Key(node, destination) -> forest edge index on which that node emits
  /// the destination's partial record (if any).
  std::unordered_map<uint64_t, int> fold_edge_;
  /// destination -> forest edges carrying its partial record, ascending.
  /// Lets per-task round evaluation verify exactly the (edge, destination)
  /// partial units the serial edge sweep verified.
  std::unordered_map<NodeId, std::vector<int>> agg_edges_by_dest_;

  // --- Suppression state ---
  bool state_initialized_ = false;
  std::vector<double> last_readings_;
  std::unordered_map<NodeId, PartialRecord> destination_records_;
  std::unordered_map<NodeId, double> current_aggregates_;
};

}  // namespace m2m

#endif  // M2M_SIM_EXECUTOR_H_
