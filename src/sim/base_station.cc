#include "sim/base_station.h"

#include <algorithm>
#include <map>

#include "agg/partial_record.h"
#include "common/check.h"

namespace m2m {

NodeId PickBaseStation(const Topology& topology) {
  NodeId best = 0;
  double best_dist = DistanceSquared(topology.position(0), Point{0.0, 0.0});
  for (NodeId n = 1; n < topology.node_count(); ++n) {
    double d = DistanceSquared(topology.position(n), Point{0.0, 0.0});
    if (d < best_dist) {
      best_dist = d;
      best = n;
    }
  }
  return best;
}

BaseStationRoundResult SimulateBaseStationRound(const Topology& topology,
                                                const PathSystem& paths,
                                                const Workload& workload,
                                                NodeId base_station,
                                                const EnergyModel& energy) {
  M2M_CHECK(base_station >= 0 && base_station < topology.node_count());
  BaseStationRoundResult result;
  result.node_energy_mj.assign(topology.node_count(), 0.0);

  auto charge_hop = [&](NodeId from, NodeId to, int payload_bytes) {
    double tx_mj = energy.TxUj(payload_bytes) / 1000.0;
    double rx_mj = energy.RxUj(payload_bytes) / 1000.0;
    result.node_energy_mj[from] += tx_mj;
    result.node_energy_mj[to] += rx_mj;
    result.messages += 1;
    result.payload_bytes += payload_bytes;
    return tx_mj + rx_mj;
  };

  // --- Uplink: every distinct source ships its raw reading to the base
  // station once. The collection tree is the union of canonical paths, so
  // per physical edge we count the raw units of all sources whose route
  // crosses it and charge one merged message.
  std::map<DirectedEdge, int> uplink_units;
  for (NodeId s : workload.DistinctSources()) {
    if (s == base_station) continue;
    std::vector<NodeId> path = paths.Path(s, base_station);
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      uplink_units[DirectedEdge{path[i], path[i + 1]}] += 1;
    }
  }
  for (const auto& [edge, units] : uplink_units) {
    result.uplink_mj +=
        charge_hop(edge.tail, edge.head, units * kRawUnitBytes);
  }

  // --- Downlink: one result value per destination, merged per edge of the
  // union of base->destination paths. Results are plain readings on the
  // wire (tag + value).
  std::map<DirectedEdge, int> downlink_units;
  for (const Task& task : workload.tasks) {
    if (task.destination == base_station) continue;
    std::vector<NodeId> path = paths.Path(base_station, task.destination);
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      downlink_units[DirectedEdge{path[i], path[i + 1]}] += 1;
    }
  }
  for (const auto& [edge, units] : downlink_units) {
    result.downlink_mj +=
        charge_hop(edge.tail, edge.head, units * kRawUnitBytes);
  }

  result.energy_mj = result.uplink_mj + result.downlink_mj;
  return result;
}

SuspicionLedger::SuspicionLedger(const Topology* topology,
                                 NodeId base_station)
    : topology_(topology), base_(base_station) {
  M2M_CHECK(topology_ != nullptr);
  M2M_CHECK(base_ >= 0 && base_ < topology_->node_count());
}

bool SuspicionLedger::RecordSuspicion(NodeId monitor, NodeId neighbor) {
  M2M_CHECK(topology_->AreNeighbors(monitor, neighbor))
      << "suspicion for a non-link " << monitor << "-" << neighbor;
  const std::pair<NodeId, NodeId> link{std::min(monitor, neighbor),
                                       std::max(monitor, neighbor)};
  auto it = std::lower_bound(links_.begin(), links_.end(), link);
  if (it != links_.end() && *it == link) return false;
  links_.insert(it, link);
  derived_.reset();
  ++revision_;
  return true;
}

bool SuspicionLedger::RecordReadmission(NodeId monitor, NodeId neighbor) {
  M2M_CHECK(topology_->AreNeighbors(monitor, neighbor))
      << "readmission for a non-link " << monitor << "-" << neighbor;
  const std::pair<NodeId, NodeId> link{std::min(monitor, neighbor),
                                       std::max(monitor, neighbor)};
  auto it = std::lower_bound(links_.begin(), links_.end(), link);
  if (it == links_.end() || *it != link) return false;
  links_.erase(it);
  derived_.reset();
  ++revision_;
  return true;
}

const SuspicionLedger::Beliefs& SuspicionLedger::Derived() const {
  if (derived_.has_value()) return *derived_;
  const int n = topology_->node_count();
  Beliefs& beliefs = derived_.emplace(
      Beliefs{Topology::WithFailures(*topology_, links_, {}),
              std::vector<NodeBelief>(n, NodeBelief::kAlive), {}, {}, 0});
  // Component analysis of the belief graph. Legacy mode: everything the
  // base station can no longer reach must be dead (survivors stay
  // connected by the deployment invariant).
  const ComponentMap components = BuildComponents(beliefs.graph);
  const int base_component = components.ComponentOf(base_);
  // Partition-aware classification: mobility voids the survivors-stay-
  // connected invariant, so an unreachable node may be alive. A singleton
  // unreachable component means every link of that node was independently
  // reported failed — radio-silent from all sides, believed dead. A
  // multi-node unreachable component is an island whose *internal* links
  // nobody reported; the conservative belief is a live partition.
  const std::vector<int> sizes = components.Sizes();
  std::vector<bool> island_counted(sizes.size(), false);
  for (NodeId node = 0; node < n; ++node) {
    const int c = components.ComponentOf(node);
    if (c == base_component) continue;
    if (!partition_aware_ || sizes[static_cast<size_t>(c)] <= 1) {
      beliefs.belief[static_cast<size_t>(node)] = NodeBelief::kDead;
      beliefs.dead.push_back(node);
    } else {
      beliefs.belief[static_cast<size_t>(node)] = NodeBelief::kPartitioned;
      beliefs.partitioned.push_back(node);
      if (!island_counted[static_cast<size_t>(c)]) {
        island_counted[static_cast<size_t>(c)] = true;
        ++beliefs.regions;
      }
    }
  }
  return beliefs;
}

}  // namespace m2m
