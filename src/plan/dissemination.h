#ifndef M2M_PLAN_DISSEMINATION_H_
#define M2M_PLAN_DISSEMINATION_H_

#include <cstdint>
#include <vector>

#include "agg/aggregate_function.h"
#include "plan/node_tables.h"
#include "routing/path_system.h"
#include "sim/energy_model.h"

namespace m2m {

/// Maximum plan bytes per radio packet during dissemination; larger node
/// images are split across packets, each paying the message header.
inline constexpr int kDisseminationPacketPayloadBytes = 64;

/// Payload bytes of an epoch-bump control packet: a node whose table
/// content survived a re-plan unchanged receives only the new epoch (a
/// varint), not its full image. Sized for the 5-byte worst-case varint.
inline constexpr int kEpochBumpPayloadBytes = 5;

/// One node's entry in a plan-update diff (see DiffNodeImages).
struct NodeImageDelta {
  NodeId node = kInvalidNode;
  /// True: ship the full new image (table content changed). False: table
  /// content is unchanged and only the epoch advances (ship a bump).
  bool ship_image = false;
};

/// Content-compares per-node images of two plan generations (epoch prefixes
/// ignored) and returns, in ascending node order, every node that must hear
/// about the new epoch: changed nodes as ship_image = true, unchanged but
/// participating nodes (non-empty content in either generation) as
/// ship_image = false. Nodes with empty content in both generations hold no
/// state and are skipped entirely. This is the unit of work the
/// self-healing dissemination protocol retries until acked.
std::vector<NodeImageDelta> DiffNodeImages(
    const std::vector<std::vector<uint8_t>>& old_images,
    const std::vector<std::vector<uint8_t>>& new_images);

/// Marks (1) a superset of the nodes whose image content differs between
/// two compiled plans over the same node count; their routing may differ
/// (failures, link costs), as it does across self-healing replans. A
/// node's tables read only its incident edges' plans and pairs, the order
/// of its outgoing edges, its own task, and the functions of the
/// destinations it serves (docs/THEORY.md §17), so the marked nodes are:
/// both ends of every edge in one plan only or whose single-edge instance
/// changed (its instance signature), every tail whose kept outgoing edges
/// changed relative order, every destination whose task appeared or
/// vanished, and every node on the routes of a destination whose function
/// changed. Every node is marked when either schedule splits an edge's
/// units over several messages (the pairwise merge fallback). An unmarked
/// node's image differs only in its epoch (RestampImageEpoch).
std::vector<uint8_t> NodesWithPossiblyChangedImages(
    const CompiledPlan& old_compiled, const FunctionSet& old_functions,
    const CompiledPlan& new_compiled, const FunctionSet& new_functions);

/// Cost of installing plan state into the network from the base station.
struct DisseminationCost {
  int nodes_updated = 0;
  int64_t state_bytes = 0;   ///< Sum of shipped node-image bytes.
  int64_t packets = 0;       ///< Radio packets (per hop).
  double energy_mj = 0.0;
};

/// Ships every non-empty node image from `base_station` along canonical
/// paths (each hop pays TX+RX for each packet). This is the cost of
/// installing a plan from scratch.
DisseminationCost ComputeFullDissemination(const CompiledPlan& compiled,
                                           const FunctionSet& functions,
                                           const PathSystem& paths,
                                           NodeId base_station,
                                           const EnergyModel& energy);

/// Ships only the node images that differ between the old and the new
/// compiled plan (byte-compared; node-local message ids keep unchanged
/// nodes' images stable). This is the Corollary 1 payoff: a localized plan
/// change updates only the nodes along the affected routes.
DisseminationCost ComputeIncrementalDissemination(
    const CompiledPlan& old_compiled, const FunctionSet& old_functions,
    const CompiledPlan& new_compiled, const FunctionSet& new_functions,
    const PathSystem& paths, NodeId base_station, const EnergyModel& energy);

}  // namespace m2m

#endif  // M2M_PLAN_DISSEMINATION_H_
