#ifndef M2M_SIM_BASE_STATION_H_
#define M2M_SIM_BASE_STATION_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "routing/path_system.h"
#include "sim/energy_model.h"
#include "topology/topology.h"
#include "workload/workload.h"

namespace m2m {

/// Outcome of one round of out-of-network control.
struct BaseStationRoundResult {
  double energy_mj = 0.0;
  double uplink_mj = 0.0;    ///< Collecting readings at the base station.
  double downlink_mj = 0.0;  ///< Delivering control signals to destinations.
  int64_t messages = 0;
  int64_t payload_bytes = 0;
  std::vector<double> node_energy_mj;
};

/// Picks a deployment-realistic base station: the node closest to the
/// area's origin corner (base stations sit at the edge of a deployment,
/// wired for power and backhaul).
NodeId PickBaseStation(const Topology& topology);

/// The paper's out-of-network alternative (section 1): every source ships
/// its raw reading to the base station over a collection tree (each
/// distinct source once, messages merged per tree edge); the base station
/// evaluates all control functions and unicasts each result back to its
/// destination (result units merged per edge of the downlink tree).
///
/// This is the strongest reasonable version of the strawman: uplink shares
/// raw values across all functions and both directions merge messages. Its
/// remaining weaknesses are exactly the ones the paper names — round trips
/// whose length grows with network size, and a traffic bottleneck at the
/// nodes around the base station (visible in node_energy_mj).
BaseStationRoundResult SimulateBaseStationRound(const Topology& topology,
                                                const PathSystem& paths,
                                                const Workload& workload,
                                                NodeId base_station,
                                                const EnergyModel& energy);

/// The base station's accumulated picture of network health, built solely
/// from in-network suspicion reports (runtime/detector.h) — never from the
/// fault schedule. Two beliefs fall out of the reports:
///
///   - believed failed links: the union of reported (monitor, neighbor)
///     pairs, normalized to undirected links;
///   - believed dead nodes: nodes unreachable from the base station in the
///     deployment topology minus the believed-failed links. This inference
///     is sound under the deployment invariant that survivors stay
///     connected (fault_schedule.h): a node every path to which crosses a
///     suspected link can only be a node whose links all failed — i.e. a
///     dead node, since its neighbors each reported their link to it.
///
/// Under *mobility* the survivors-stay-connected invariant no longer holds:
/// a drifting cluster can carry a whole region out of range, leaving nodes
/// unreachable yet alive. `set_partition_aware(true)` switches the
/// unreachability inference to component analysis: an unreachable node is
/// believed *dead* only when it is isolated in the belief graph (a
/// singleton component — every one of its own links was reported failed,
/// which only total radio silence or death produces). Unreachable nodes
/// that still form a multi-node island are believed *partitioned*: alive,
/// holding state, and expected to merge back later. The distinction is
/// what lets the runtime (a) report degraded coverage with a partition
/// cause instead of a stale "complete", and (b) force full-image
/// reconciliation when the island reconnects.
///
/// A record only edits the sorted link list and bumps `revision`, the base
/// station's trigger to re-plan and open a new plan epoch. Everything else
/// comes from one derivation, run on the first read after a change (a
/// record, a readmission or a mode switch), so a control round folding in
/// many reports derives once. The runtime plans over `belief_graph()`
/// itself: masking the unreachable nodes would change no route between
/// the nodes its believed workload names (THEORY §8).
///
/// Nothing else is stored here: what the runtime concludes from these
/// beliefs (which believed deaths were battery exhaustion, which nodes a
/// replan must send full images) it derives where it reads it.
class SuspicionLedger {
 public:
  /// What the base station believes about one node.
  enum class NodeBelief : uint8_t { kAlive, kDead, kPartitioned };

  SuspicionLedger(const Topology* topology, NodeId base_station);

  /// Enables partition-aware unreachability classification. Off (legacy)
  /// every unreachable node is believed dead, which is exactly right under
  /// the static fault model and keeps pre-mobility runs byte-identical.
  void set_partition_aware(bool aware) {
    if (partition_aware_ == aware) return;
    partition_aware_ = aware;
    derived_.reset();
  }
  bool partition_aware() const { return partition_aware_; }

  /// Records one reported suspicion. Returns true iff it was new (its
  /// undirected link was not yet believed failed).
  bool RecordSuspicion(NodeId monitor, NodeId neighbor);

  /// Retracts a previously recorded suspicion — the monitor readmitted the
  /// neighbor after probation (detector hysteresis). Returns true iff the
  /// undirected link was believed failed; `revision` then bumps, triggering
  /// a re-plan that routes over the healed link again.
  bool RecordReadmission(NodeId monitor, NodeId neighbor);

  /// Undirected believed-failed links, sorted (lo, hi).
  const std::vector<std::pair<NodeId, NodeId>>& believed_failed_links()
      const {
    return links_;
  }

  /// The base station's belief about `node`.
  NodeBelief belief(NodeId node) const {
    return Derived().belief[static_cast<size_t>(node)];
  }

  /// Nodes the base station believes dead, sorted by id.
  const std::vector<NodeId>& believed_dead() const { return Derived().dead; }

  /// Nodes the base station believes alive but partitioned away (always
  /// empty unless partition-aware), sorted by id.
  const std::vector<NodeId>& believed_partitioned() const {
    return Derived().partitioned;
  }

  /// Number of disconnected multi-node islands currently believed to exist
  /// beyond the base station's region (0 when no partition is believed).
  int partition_region_count() const { return Derived().regions; }

  /// The belief graph: the deployment topology minus the believed-failed
  /// links. Exactly the nodes believed alive are reachable from the base
  /// station in it.
  const Topology& belief_graph() const { return Derived().graph; }

  /// Bumped on every belief change; equal revisions mean equal beliefs.
  int revision() const { return revision_; }

 private:
  /// Everything derived from the link list and the mode.
  struct Beliefs {
    Topology graph;
    std::vector<NodeBelief> belief;  ///< Per node.
    std::vector<NodeId> dead;
    std::vector<NodeId> partitioned;
    int regions = 0;
  };

  /// The beliefs for the current links and mode, derived if stale.
  const Beliefs& Derived() const;

  const Topology* topology_;
  NodeId base_;
  bool partition_aware_ = false;
  std::vector<std::pair<NodeId, NodeId>> links_;  // Sorted (lo, hi).
  mutable std::optional<Beliefs> derived_;        // Empty when stale.
  int revision_ = 0;
};

}  // namespace m2m

#endif  // M2M_SIM_BASE_STATION_H_
