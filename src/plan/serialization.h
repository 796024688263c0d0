#ifndef M2M_PLAN_SERIALIZATION_H_
#define M2M_PLAN_SERIALIZATION_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "agg/aggregate_function.h"
#include "plan/node_tables.h"

namespace m2m {

/// Binary wire image of one node's runtime state (paper section 3's four
/// tables plus the destination flag). This is what dissemination ships into
/// the network and what a mote would hold in RAM.
///
/// Message identifiers are *node-local* (the index of the message in the
/// node's own outgoing table), so a node's image is stable as long as its
/// role in the plan is unchanged — the property that makes incremental
/// dissemination cheap after localized plan updates (Corollary 1).
///
/// Layout (all multi-byte integers little-endian, counts as varints):
///   varint plan_epoch
///   varint raw_count        { varint source; varint local_msg }*
///   varint preagg_count     { varint source; varint destination;
///                             u8 kind; f32 weight; f32 param }*
///   varint partial_count    { varint destination; varint expected;
///                             varint local_msg_plus1 (0 = consumed here);
///                             u8 kind }*
///   varint outgoing_count   { varint unit_count; varint recipient }*
///   u8 is_destination
///
/// The pre-aggregation entries carry the operational form of w_{d,s}
/// (function kind + weight + kind parameter) and partial entries the merge/
/// evaluate kind m_d/e_d, so a node can execute the plan from the image
/// alone (see runtime/NodeRuntime).
///
/// `plan_epoch` versions the plan the tables belong to (failure handling:
/// each base-station re-plan bumps the epoch, and the runtime refuses to
/// merge records across epochs). The epoch rides ahead of the table body so
/// plan *content* can be compared across epochs with ImageContentsEqual.
std::vector<uint8_t> EncodeNodeState(const NodeState& state,
                                     const FunctionSet& functions,
                                     uint32_t plan_epoch = 0);

/// Function metadata serialized with one pre-aggregation entry; the kind
/// travels as the byte static_cast<uint8_t>(AggregateKind).
struct DecodedPreAggMeta {
  AggregateKind kind = AggregateKind::kWeightedSum;
  float weight = 1.0f;
  float param = 0.0f;
};

/// Decoded image; `preagg_meta[i]` belongs to `state.preagg_table[i]` and
/// `partial_kinds[i]` to `state.partial_table[i]`. Message ids in the
/// decoded state are the node-local ids of the image (outgoing segments are
/// not part of the wire image — the communication layer owns routes).
struct DecodedNodeState {
  NodeState state;
  std::vector<DecodedPreAggMeta> preagg_meta;
  std::vector<AggregateKind> partial_kinds;
  /// Version of the plan these tables were compiled from.
  uint32_t plan_epoch = 0;
};

DecodedNodeState DecodeNodeState(const std::vector<uint8_t>& bytes);

/// Bounds-checked decode for untrusted bytes (a mote must survive a
/// corrupted dissemination packet): returns nullopt instead of
/// CHECK-failing on truncated or structurally invalid images. Validates
/// that node ids and counts are in range, that every kind byte names an
/// AggregateKind, that raw/partial entries reference the outgoing table,
/// and that the image is consumed exactly.
std::optional<DecodedNodeState> TryDecodeNodeState(
    const std::vector<uint8_t>& bytes);

/// Wire images for every node of a compiled plan, indexed by node id and
/// stamped with the compiled plan's epoch.
std::vector<std::vector<uint8_t>> EncodeAllNodeStates(
    const CompiledPlan& compiled, const FunctionSet& functions);

/// Rewrites the leading plan-epoch varint of an image produced by
/// EncodeNodeState, in place: the result equals re-encoding the same state
/// under `plan_epoch`, and the vector reallocates only when the varint's
/// length changes (at 2^7, 2^14, ...). The table body is not touched.
void RestampImageEpoch(std::vector<uint8_t>& image, uint32_t plan_epoch);

/// True iff two images carry the same table *content*, ignoring the plan
/// epoch prefix. Incremental dissemination diffs on content: a re-plan that
/// leaves a node's role unchanged must not re-ship its tables just because
/// the epoch advanced (Corollary 1 keeps the shipped diff small); such
/// nodes receive only a fixed-size epoch-bump control packet.
bool ImageContentsEqual(const std::vector<uint8_t>& a,
                        const std::vector<uint8_t>& b);

}  // namespace m2m

#endif  // M2M_PLAN_SERIALIZATION_H_
