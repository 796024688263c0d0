#ifndef M2M_RUNTIME_NODE_RUNTIME_H_
#define M2M_RUNTIME_NODE_RUNTIME_H_

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "agg/aggregate_function.h"
#include "agg/partial_record.h"
#include "common/bytes.h"
#include "common/ids.h"
#include "plan/serialization.h"
#include "runtime/wire_functions.h"

namespace m2m {

/// The per-mote implementation of paper section 3's node behavior: a state
/// machine constructed purely from a node's serialized table image (the
/// bytes dissemination ships), exchanging *encoded packets* with neighbors.
/// No global plan, forest, or function objects are visible to a node — only
/// its own four tables with their serialized function metadata.
///
/// Round protocol:
///   1. StartRound(reading): reset round state, inject the local reading.
///   2. OnReceive(packet): decode incoming units; raw values are forwarded
///      and/or pre-aggregated per the tables; partial records merge into
///      the node's accumulators.
///   3. DrainReadyPackets(arena, out): outgoing messages whose units are
///      all ready, encoded for the radio into the caller's packet arena.
///      Call after StartRound and after every OnReceive.
///   4. FinalValue(): for destination nodes, the evaluated aggregate once
///      every expected contribution has arrived.
class NodeRuntime {
 public:
  /// `image` is the wire image produced by EncodeNodeState.
  NodeRuntime(NodeId id, const std::vector<uint8_t>& image);

  NodeRuntime(const NodeRuntime&) = default;
  NodeRuntime& operator=(const NodeRuntime&) = default;
  NodeRuntime(NodeRuntime&&) noexcept = default;
  NodeRuntime& operator=(NodeRuntime&&) noexcept = default;

  NodeId id() const { return id_; }
  bool is_destination() const { return state_.state.is_destination; }
  const DecodedNodeState& decoded() const { return state_; }
  /// Epoch of the installed plan image (stamped by EncodeNodeState).
  uint32_t plan_epoch() const { return state_.plan_epoch; }

  /// Installs a new plan image mid-deployment (epoch transition, paper
  /// section 3 failure handling). All in-progress round state — including
  /// partially merged accumulators of the previous epoch — is dropped: a
  /// partial record is only attributable to the plan that produced it, so
  /// carrying it into the new epoch could silently merge records from
  /// different plans. Re-installing the currently installed epoch is a
  /// no-op (idempotent against duplicated dissemination packets) that
  /// returns true; an image from an *older* epoch is rejected (returns
  /// false) — when two plan lineages meet after a partition heals, the
  /// higher epoch wins deterministically and the stale side must re-sync.
  bool InstallImage(const std::vector<uint8_t>& image);

  void StartRound(double reading);

  /// Processes one incoming packet (payload produced by another node's
  /// DrainReadyPackets). Every call is assumed to be a fresh packet; when
  /// the link layer may deliver duplicates, receive through the epoch-gated
  /// OnReceiveOnce below, which dedups before calling this.
  void OnReceive(std::span<const uint8_t> packet);

  /// Outcome of a duplicate-suppressing receive.
  enum class ReceiveOutcome {
    kFresh,          ///< New packet, decoded and merged.
    kDuplicate,      ///< Retransmission of an already-seen packet; ignored.
    kEpochMismatch,  ///< Sender runs a different plan epoch; dropped whole.
  };

  /// Duplicate-suppressing, epoch-gated receive for lossy links: a
  /// retransmission of a (sender, sender-local message id) pair already
  /// seen this round is ignored (the sender repeats a message when its ack
  /// is lost, so the receiver must treat packets idempotently), and a
  /// packet stamped with a plan epoch other than this node's is dropped
  /// without decoding — during a plan transition, units from the old and
  /// the new plan must never merge into one aggregate. `tick` timestamps
  /// the dedup entry so EvictSeenPacketsBefore can bound the table.
  ReceiveOutcome OnReceiveOnce(NodeId sender, int sender_message_id,
                               uint32_t sender_epoch,
                               std::span<const uint8_t> packet, int tick);

  /// Drops dedup entries last refreshed before `tick` and returns how many
  /// it dropped. Safe once `tick` is beyond the retry horizon (the latest
  /// tick at which a sender could still retransmit the message), which
  /// keeps the table at O(messages in flight) instead of O(messages ever
  /// received) in long lossy runs.
  int EvictSeenPacketsBefore(int tick);

  /// Current dedup-table size (regression guard for the eviction bound).
  size_t seen_packet_count() const { return seen_packets_.size(); }

  /// One encoded packet: its payload is arena bytes
  /// [payload_offset, payload_offset + payload_size) of the writer it was
  /// drained into.
  struct OutgoingPacket {
    int local_message_id = -1;
    NodeId recipient = kInvalidNode;
    uint32_t payload_offset = 0;
    uint32_t payload_size = 0;
    int unit_count = 0;
  };

  /// Encodes the messages that became complete since the last drain:
  /// appends each payload to `arena` and replaces `out` with the packets,
  /// in emission order. A round drains every node into one arena, so
  /// emitting a packet allocates nothing once the arena and `out` are warm.
  void DrainReadyPackets(ByteWriter& arena, std::vector<OutgoingPacket>& out);

  /// The destination's aggregate, once complete.
  std::optional<double> FinalValue() const;

  /// Diagnostics: the received/expected contribution counts per
  /// destination accumulator.
  struct AccumulatorStatus {
    NodeId destination = kInvalidNode;
    int received = 0;
    int expected = 0;
  };
  std::vector<AccumulatorStatus> AccumulatorStatuses() const;

  /// Coverage accounting for a destination node: the contributing-source
  /// summary accumulated so far for this node's own aggregate, plus a
  /// best-effort ("degraded") evaluation of the partially merged record —
  /// what the destination would report if the round were cut off now.
  /// nullopt when this node is not a destination.
  struct CoverageReport {
    wire::SourceSummary summary;
    /// Evaluation of the partial merge; nullopt when nothing contributed
    /// yet (or the kind cannot be evaluated on an empty record).
    std::optional<double> degraded_value;
    int received = 0;
    int expected = 0;
  };
  std::optional<CoverageReport> DestinationCoverage() const;

 private:
  struct Accumulator {
    PartialRecord record;
    int received = 0;
    int expected = 0;
    int local_message = -1;  // -1: consumed at this node.
    AggregateKind kind = AggregateKind::kWeightedSum;
    bool has_record = false;
    /// Which sources the merged record accounts for (coverage accounting;
    /// rides with every partial unit on the wire).
    wire::SourceSummary summary;
  };
  /// Where one source's raw value goes: uses_[begin, preagg_begin) are
  /// the raw-table messages that forward it (local message ids) and
  /// uses_[preagg_begin, end) the pre-aggregation entries that consume it
  /// (preagg-table indices), each in table order.
  struct SourceUse {
    NodeId source = kInvalidNode;
    int begin = 0;
    int preagg_begin = 0;
    int end = 0;
  };
  struct RawValue {
    double value = 0.0;
    bool present = false;
  };
  /// One packet unit of an outgoing message: a source slot (raw unit), or a
  /// partial-table index when `partial`.
  struct Unit {
    bool partial = false;
    int index = 0;
  };
  struct SeenPacket {
    uint64_t key = 0;  ///< (sender << 32) | sender-local message id.
    int tick = 0;      ///< Tick the packet was last received.
  };

  /// Builds the lookup indexes below from the installed tables and sizes
  /// the round state to them, so a round allocates nothing per node.
  void IndexTables();
  /// Position of `source` in sources_, or -1 when no table uses it.
  int SourceSlot(NodeId source) const;
  /// Partial-table index of `destination`'s accumulator, or -1.
  int AccumulatorSlot(NodeId destination) const;

  void AcceptRawValue(NodeId source, double value);
  void AcceptPartialRecord(NodeId destination, const PartialRecord& record);
  void MergeSummaryInto(NodeId destination,
                        const wire::SourceSummary& summary);
  void MarkUnitReady(int local_message);
  void CompleteAccumulator(NodeId destination, Accumulator& accumulator);

  NodeId id_;
  DecodedNodeState state_;

  // --- Install-time indexes over state_ (rebuilt by IndexTables) ---
  std::vector<SourceUse> sources_;  ///< Sorted by source.
  std::vector<int> uses_;
  /// (destination, partial-table index), sorted by destination.
  std::vector<std::pair<NodeId, int>> accumulator_index_;
  /// Units of local message g: units_[unit_offsets_[g], unit_offsets_[g+1]),
  /// raw entries first, then partial entries, each in table order (empty
  /// when the node sends nothing).
  std::vector<int> unit_offsets_;
  std::vector<Unit> units_;

  // --- Round state, sized at install and reset in place by StartRound ---
  bool round_active_ = false;
  std::vector<RawValue> raw_values_;        ///< By source slot.
  std::vector<Accumulator> accumulators_;   ///< By partial-table index.
  std::vector<int> ready_units_;            ///< By local message id.
  std::vector<int> pending_emits_;
  std::optional<double> final_value_;
  /// Dedup entries, one per (sender, sender-local message id) seen this
  /// round. Entries are evicted once the sender's retry horizon has passed
  /// (EvictSeenPacketsBefore), bounding the table in long-running lossy
  /// simulations; it holds a handful of entries, so lookups scan it.
  std::vector<SeenPacket> seen_packets_;
};

}  // namespace m2m

#endif  // M2M_RUNTIME_NODE_RUNTIME_H_
