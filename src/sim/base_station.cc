#include "sim/base_station.h"

#include <algorithm>
#include <map>
#include <set>

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
  std::pair<NodeId, NodeId> link{std::min(monitor, neighbor),
                                 std::max(monitor, neighbor)};
  if (!reported_.insert(link).second) return false;
  Recompute();
  ++revision_;
  return true;
}

bool SuspicionLedger::RecordReadmission(NodeId monitor, NodeId neighbor) {
  M2M_CHECK(topology_->AreNeighbors(monitor, neighbor))
      << "readmission for a non-link " << monitor << "-" << neighbor;
  std::pair<NodeId, NodeId> link{std::min(monitor, neighbor),
                                 std::max(monitor, neighbor)};
  if (reported_.erase(link) == 0) return false;
  Recompute();
  ++revision_;
  return true;
}

void SuspicionLedger::Recompute() {
  links_.assign(reported_.begin(), reported_.end());
  dead_.clear();
  partitioned_.clear();
  partition_regions_ = 0;
  // Component analysis of the belief graph (deployment minus the believed
  // links). Legacy mode: everything the base station can no longer reach
  // must be dead (survivors stay connected by the deployment invariant).
  ComponentMap components =
      BuildComponents(Topology::WithFailures(*topology_, links_, {}));
  const int base_component = components.ComponentOf(base_);
  if (!partition_aware_) {
    for (NodeId n = 0; n < topology_->node_count(); ++n) {
      if (components.ComponentOf(n) != base_component) dead_.push_back(n);
    }
    return;
  }
  // Partition-aware classification: mobility voids the survivors-stay-
  // connected invariant, so an unreachable node may be alive. A singleton
  // unreachable component means every link of that node was independently
  // reported failed — radio-silent from all sides, believed dead. A
  // multi-node unreachable component is an island whose *internal* links
  // nobody reported; the conservative belief is a live partition.
  std::vector<int> sizes = components.Sizes();
  std::set<int> partition_components;
  for (NodeId n = 0; n < topology_->node_count(); ++n) {
    const int c = components.ComponentOf(n);
    if (c == base_component) continue;
    if (sizes[static_cast<size_t>(c)] <= 1) {
      dead_.push_back(n);
    } else {
      partitioned_.push_back(n);
      partition_components.insert(c);
    }
  }
  partition_regions_ = static_cast<int>(partition_components.size());
}

Topology SuspicionLedger::BelievedTopology() const {
  std::vector<NodeId> masked_nodes = dead_;
  masked_nodes.insert(masked_nodes.end(), partitioned_.begin(),
                      partitioned_.end());
  std::sort(masked_nodes.begin(), masked_nodes.end());
  return Topology::WithFailures(*topology_, links_, masked_nodes);
}

}  // namespace m2m
