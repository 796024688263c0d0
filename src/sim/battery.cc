#include "sim/battery.h"

#include <algorithm>

#include "common/check.h"

namespace m2m {

BatteryLedger::BatteryLedger(int node_count, const BatteryOptions& options)
    : initial_mj_(node_count, options.initial_charge_mj),
      drained_mj_(node_count, 0.0),
      immortal_(node_count, false),
      idle_mj_per_round_(options.idle_mj_per_round) {
  M2M_CHECK_GE(node_count, 0);
  if (!options.initial_charge_mj_per_node.empty()) {
    M2M_CHECK_EQ(
        static_cast<int>(options.initial_charge_mj_per_node.size()),
        node_count)
        << "per-node charges must cover every node";
    initial_mj_ = options.initial_charge_mj_per_node;
  }
  for (double charge : initial_mj_) M2M_CHECK_GE(charge, 0.0);
  M2M_CHECK_GE(idle_mj_per_round_, 0.0);
  for (NodeId node : options.immortal_nodes) {
    M2M_CHECK(node >= 0 && node < node_count);
    immortal_[node] = true;
  }
}

void BatteryLedger::ChargeRound(const std::vector<double>& node_mj) {
  M2M_CHECK_EQ(static_cast<int>(node_mj.size()), node_count());
  for (NodeId node = 0; node < node_count(); ++node) {
    if (immortal_[node]) continue;
    const bool was_depleted = depleted(node);
    drained_mj_[node] += node_mj[node];
    if (!was_depleted) drained_mj_[node] += idle_mj_per_round_;
  }
  ++rounds_charged_;
}

double BatteryLedger::residual_mj(NodeId node) const {
  return std::max(0.0, initial_mj_[node] - drained_mj_[node]);
}

double BatteryLedger::residual_fraction(NodeId node) const {
  if (immortal_[node]) return 1.0;
  if (initial_mj_[node] <= 0.0) return 0.0;
  return residual_mj(node) / initial_mj_[node];
}

bool BatteryLedger::depleted(NodeId node) const {
  return !immortal_[node] && drained_mj_[node] >= initial_mj_[node];
}

std::vector<NodeId> BatteryLedger::depleted_nodes() const {
  std::vector<NodeId> nodes;
  for (NodeId node = 0; node < node_count(); ++node) {
    if (depleted(node)) nodes.push_back(node);
  }
  return nodes;
}

double BatteryLedger::total_drain_mj() const {
  double total = 0.0;
  for (double drained : drained_mj_) total += drained;
  return total;
}

std::vector<double> CompiledRoundEnergyMj(const CompiledPlan& compiled,
                                          const EnergyModel& energy) {
  // Mirrors PlanExecutor's ledger charge operation for operation:
  // microjoules accumulated over messages in schedule order, TX before RX
  // per hop, one division at the end. Any deviation breaks the exact
  // predicted-vs-executed reconciliation (energy_test pins it).
  std::vector<double> node_uj(compiled.node_count(), 0.0);
  const MessageSchedule& schedule = compiled.schedule();
  for (const MessageSchedule::Message& message : schedule.messages()) {
    int payload_bytes = 0;
    for (int u : message.unit_ids) {
      payload_bytes += schedule.units()[u].unit_bytes;
    }
    const ForestEdge& edge =
        compiled.plan().forest().edges()[message.edge_index];
    for (size_t hop = 0; hop + 1 < edge.segment.size(); ++hop) {
      node_uj[edge.segment[hop]] += energy.TxUj(payload_bytes);
      node_uj[edge.segment[hop + 1]] += energy.RxUj(payload_bytes);
    }
  }
  for (double& uj : node_uj) uj /= 1000.0;
  return node_uj;
}

}  // namespace m2m
