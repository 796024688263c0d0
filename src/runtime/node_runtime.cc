#include "runtime/node_runtime.h"

#include <algorithm>
#include <numeric>
#include <tuple>
#include <utility>

#include "agg/aggregate_function.h"
#include "common/bytes.h"
#include "common/check.h"
#include "runtime/wire_functions.h"

namespace m2m {

namespace {

// Packet unit tag: bit 0 = partial record, bits 4..6 = field count.
constexpr uint8_t kPartialBit = 0x01;

uint8_t MakeTag(bool is_partial, int field_count) {
  M2M_CHECK(field_count >= 1 && field_count <= 7);
  return static_cast<uint8_t>((is_partial ? kPartialBit : 0) |
                              (field_count << 4));
}

/// Per-thread scratch for a unit's source summary on its way into an
/// accumulator, so merging one allocates nothing once warm. Nodes of one
/// round may be driven from several threads, never one node from two.
wire::SourceSummary& ScratchSummary() {
  thread_local wire::SourceSummary summary;
  return summary;
}

}  // namespace

NodeRuntime::NodeRuntime(NodeId id, const std::vector<uint8_t>& image)
    : id_(id), state_(DecodeNodeState(image)) {
  IndexTables();
}

void NodeRuntime::IndexTables() {
  const NodeState& tables = state_.state;
  // Sources the tables use (raw forwards, pre-aggregations), with their
  // uses grouped per source: raw forwards first, each kind in table order.
  std::vector<std::tuple<NodeId, bool, int>> by_source;  // (source, preagg, i)
  by_source.reserve(tables.raw_table.size() + tables.preagg_table.size());
  for (size_t i = 0; i < tables.raw_table.size(); ++i) {
    by_source.emplace_back(tables.raw_table[i].source, false,
                           static_cast<int>(i));
  }
  for (size_t i = 0; i < tables.preagg_table.size(); ++i) {
    by_source.emplace_back(tables.preagg_table[i].source, true,
                           static_cast<int>(i));
  }
  std::sort(by_source.begin(), by_source.end());
  sources_.clear();
  uses_.clear();
  for (const auto& [source, preagg, i] : by_source) {
    if (sources_.empty() || sources_.back().source != source) {
      const int at = static_cast<int>(uses_.size());
      sources_.push_back(SourceUse{source, at, at, at});
    }
    uses_.push_back(preagg ? i : tables.raw_table[i].message_id);
    sources_.back().end = static_cast<int>(uses_.size());
    if (!preagg) sources_.back().preagg_begin = sources_.back().end;
  }

  accumulator_index_.clear();
  for (size_t i = 0; i < tables.partial_table.size(); ++i) {
    accumulator_index_.emplace_back(tables.partial_table[i].destination,
                                    static_cast<int>(i));
  }
  std::sort(accumulator_index_.begin(), accumulator_index_.end());
  for (size_t i = 1; i < accumulator_index_.size(); ++i) {
    M2M_CHECK(accumulator_index_[i - 1].first != accumulator_index_[i].first)
        << "node " << id_ << " has two partial entries for destination "
        << accumulator_index_[i].first;
  }

  // Packet layout per outgoing message: raw units, then partial units,
  // each in table order.
  const int messages = static_cast<int>(tables.outgoing_table.size());
  std::vector<std::tuple<int, bool, int>> by_message;  // (message, partial, i)
  by_message.reserve(tables.raw_table.size() + tables.partial_table.size());
  for (size_t i = 0; i < tables.raw_table.size(); ++i) {
    by_message.emplace_back(tables.raw_table[i].message_id, false,
                            static_cast<int>(i));
  }
  for (size_t i = 0; i < tables.partial_table.size(); ++i) {
    if (tables.partial_table[i].message_id < 0) continue;  // Consumed here.
    by_message.emplace_back(tables.partial_table[i].message_id, true,
                            static_cast<int>(i));
  }
  std::sort(by_message.begin(), by_message.end());
  unit_offsets_.assign(messages == 0 ? 0 : messages + 1, 0);
  units_.clear();
  for (const auto& [message, partial, i] : by_message) {
    M2M_CHECK(message >= 0 && message < messages)
        << "node " << id_ << " references unknown message " << message;
    units_.push_back(
        Unit{partial, partial ? i : SourceSlot(tables.raw_table[i].source)});
    ++unit_offsets_[message + 1];
  }
  std::partial_sum(unit_offsets_.begin(), unit_offsets_.end(),
                   unit_offsets_.begin());

  raw_values_.assign(sources_.size(), RawValue{});
  accumulators_.assign(tables.partial_table.size(), Accumulator{});
  ready_units_.assign(messages, 0);
}

int NodeRuntime::SourceSlot(NodeId source) const {
  auto it = std::ranges::lower_bound(sources_, source, {}, &SourceUse::source);
  if (it == sources_.end() || it->source != source) return -1;
  return static_cast<int>(it - sources_.begin());
}

int NodeRuntime::AccumulatorSlot(NodeId destination) const {
  auto it = std::ranges::lower_bound(accumulator_index_, destination, {},
                                     &std::pair<NodeId, int>::first);
  if (it == accumulator_index_.end() || it->first != destination) return -1;
  return it->second;
}

bool NodeRuntime::InstallImage(const std::vector<uint8_t>& image) {
  DecodedNodeState incoming = DecodeNodeState(image);
  if (incoming.plan_epoch == state_.plan_epoch) return true;  // Duplicate.
  if (incoming.plan_epoch < state_.plan_epoch) {
    // Stale lineage (e.g. a partition heals and the other side disseminated
    // under an older epoch): the higher epoch wins, deterministically.
    return false;
  }
  state_ = std::move(incoming);
  // Epoch transition: drop all round state. Old-epoch partials must not
  // survive into the new plan (no cross-epoch merges), and message ids /
  // accumulator shapes may have changed anyway.
  round_active_ = false;
  IndexTables();
  pending_emits_.clear();
  final_value_.reset();
  seen_packets_.clear();
  return true;
}

void NodeRuntime::StartRound(double reading) {
  round_active_ = true;
  std::fill(raw_values_.begin(), raw_values_.end(), RawValue{});
  std::fill(ready_units_.begin(), ready_units_.end(), 0);
  pending_emits_.clear();
  final_value_.reset();
  seen_packets_.clear();

  for (size_t i = 0; i < accumulators_.size(); ++i) {
    const PartialTableEntry& entry = state_.state.partial_table[i];
    Accumulator& accumulator = accumulators_[i];
    accumulator.record = PartialRecord{};
    accumulator.received = 0;
    accumulator.expected = entry.expected_contributions;
    accumulator.local_message = entry.message_id;
    accumulator.kind = state_.partial_kinds[i];
    accumulator.has_record = false;
    // Reset in place, keeping the source list's storage.
    accumulator.summary.count = 0;
    accumulator.summary.xor_fold = 0;
    accumulator.summary.exact_known = true;
    accumulator.summary.sources.clear();
  }
  // The node's own reading enters the pipeline like any other raw value.
  AcceptRawValue(id_, reading);
}

void NodeRuntime::AcceptRawValue(NodeId source, double value) {
  M2M_CHECK(round_active_);
  const int slot = SourceSlot(source);
  // A source no table uses has no effect (e.g. the node's own reading when
  // it forwards nothing); a repeated one is ignored: raw values are
  // idempotent by source.
  if (slot < 0 || raw_values_[slot].present) return;
  raw_values_[slot] = RawValue{value, true};
  const SourceUse& use = sources_[slot];
  for (int u = use.begin; u < use.preagg_begin; ++u) {
    MarkUnitReady(uses_[u]);
  }
  for (int u = use.preagg_begin; u < use.end; ++u) {
    const int i = uses_[u];
    const PreAggTableEntry& entry = state_.state.preagg_table[i];
    const DecodedPreAggMeta& meta = state_.preagg_meta[i];
    AcceptPartialRecord(entry.destination,
                        agg::PreAggregate(meta.kind, meta.weight,
                                          meta.param, source, value));
    // Pre-aggregation is where a raw reading becomes a partial record, so
    // this is where its source enters the coverage summary.
    wire::AssignSingleSource(source, ScratchSummary());
    MergeSummaryInto(entry.destination, ScratchSummary());
  }
}

void NodeRuntime::MergeSummaryInto(NodeId destination,
                                   const wire::SourceSummary& summary) {
  const int slot = AccumulatorSlot(destination);
  M2M_CHECK_GE(slot, 0);
  wire::SourceSummary& mine = accumulators_[slot].summary;
  if (mine.count == 0) {
    mine = summary;
  } else {
    wire::UnionSummaryInPlace(mine, summary);
  }
}

void NodeRuntime::AcceptPartialRecord(NodeId destination,
                                      const PartialRecord& record) {
  M2M_CHECK(round_active_);
  const int slot = AccumulatorSlot(destination);
  M2M_CHECK_GE(slot, 0)
      << "node " << id_ << " received a partial record for destination "
      << destination << " it has no table entry for";
  Accumulator& accumulator = accumulators_[slot];
  accumulator.record = accumulator.has_record
                           ? agg::Merge(accumulator.kind,
                                        accumulator.record, record)
                           : record;
  accumulator.has_record = true;
  accumulator.received += 1;
  M2M_CHECK_LE(accumulator.received, accumulator.expected)
      << "node " << id_ << " over-received for destination " << destination;
  if (accumulator.received == accumulator.expected) {
    CompleteAccumulator(destination, accumulator);
  }
}

void NodeRuntime::CompleteAccumulator(NodeId destination,
                                      Accumulator& accumulator) {
  if (accumulator.local_message < 0) {
    // This node is the destination: evaluate.
    M2M_CHECK_EQ(destination, id_);
    final_value_ = agg::Evaluate(accumulator.kind, accumulator.record);
    return;
  }
  MarkUnitReady(accumulator.local_message);
}

void NodeRuntime::MarkUnitReady(int local_message) {
  M2M_CHECK(local_message >= 0 &&
            local_message <
                static_cast<int>(state_.state.outgoing_table.size()));
  int ready = ++ready_units_[local_message];
  int expected = state_.state.outgoing_table[local_message].unit_count;
  M2M_CHECK_LE(ready, expected) << "message over-filled at node " << id_;
  if (ready == expected) pending_emits_.push_back(local_message);
}

void NodeRuntime::DrainReadyPackets(ByteWriter& arena,
                                    std::vector<OutgoingPacket>& out) {
  out.clear();
  for (int local_message : pending_emits_) {
    const OutgoingMessageEntry& entry =
        state_.state.outgoing_table[local_message];
    const size_t offset = arena.size();
    arena.WriteVarint(static_cast<uint64_t>(entry.unit_count));
    int written = 0;
    for (int u = unit_offsets_[local_message];
         u < unit_offsets_[local_message + 1]; ++u) {
      if (!units_[u].partial) {
        const int slot = units_[u].index;
        arena.WriteU8(MakeTag(/*is_partial=*/false, 1));
        arena.WriteVarint(static_cast<uint64_t>(sources_[slot].source));
        arena.WriteF32(static_cast<float>(raw_values_[slot].value));
        ++written;
        continue;
      }
      const PartialTableEntry& partial =
          state_.state.partial_table[units_[u].index];
      const Accumulator& accumulator = accumulators_[units_[u].index];
      int fields = agg::FieldCount(accumulator.kind);
      arena.WriteU8(MakeTag(/*is_partial=*/true, fields));
      arena.WriteVarint(static_cast<uint64_t>(partial.destination));
      for (int f = 0; f < fields; ++f) {
        arena.WriteF32(static_cast<float>(accumulator.record.fields[f]));
      }
      // Coverage summary rides after the record fields so the receiver can
      // attribute the merge to its contributing sources.
      wire::AppendSourceSummary(accumulator.summary, arena);
      ++written;
    }
    M2M_CHECK_EQ(written, entry.unit_count)
        << "message " << local_message << " at node " << id_
        << " has mismatched unit count";
    M2M_CHECK_LE(arena.size(), size_t{UINT32_MAX}) << "packet arena overflows";
    out.push_back(OutgoingPacket{
        local_message, entry.recipient, static_cast<uint32_t>(offset),
        static_cast<uint32_t>(arena.size() - offset), entry.unit_count});
  }
  pending_emits_.clear();
}

void NodeRuntime::OnReceive(std::span<const uint8_t> packet) {
  ByteReader reader(packet);
  uint64_t unit_count = reader.ReadVarint();
  for (uint64_t i = 0; i < unit_count; ++i) {
    uint8_t tag = reader.ReadU8();
    bool is_partial = (tag & kPartialBit) != 0;
    int fields = tag >> 4;
    NodeId subject = static_cast<NodeId>(reader.ReadVarint());
    if (is_partial) {
      PartialRecord record;
      for (int f = 0; f < fields; ++f) {
        record.fields[f] = reader.ReadF32();
      }
      AcceptPartialRecord(subject, record);
      wire::ReadSourceSummaryInto(reader, ScratchSummary());
      MergeSummaryInto(subject, ScratchSummary());
    } else {
      M2M_CHECK_EQ(fields, 1);
      AcceptRawValue(subject, reader.ReadF32());
    }
  }
  M2M_CHECK(reader.AtEnd()) << "trailing bytes in data packet";
}

NodeRuntime::ReceiveOutcome NodeRuntime::OnReceiveOnce(
    NodeId sender, int sender_message_id, uint32_t sender_epoch,
    std::span<const uint8_t> packet, int tick) {
  // Epoch gate first: a packet from another plan generation must not touch
  // this node's tables (its units reference the sender's plan, and merging
  // them here would blend two plans into one aggregate). The link layer
  // still acks it so the sender stops retrying.
  if (sender_epoch != state_.plan_epoch) {
    return ReceiveOutcome::kEpochMismatch;
  }
  uint64_t key = (static_cast<uint64_t>(static_cast<uint32_t>(sender)) << 32) |
                 static_cast<uint32_t>(sender_message_id);
  for (SeenPacket& seen : seen_packets_) {
    if (seen.key != key) continue;
    seen.tick = tick;  // Refresh the horizon on duplicates too.
    return ReceiveOutcome::kDuplicate;
  }
  seen_packets_.push_back(SeenPacket{key, tick});
  OnReceive(packet);
  return ReceiveOutcome::kFresh;
}

int NodeRuntime::EvictSeenPacketsBefore(int tick) {
  const size_t before = seen_packets_.size();
  std::erase_if(seen_packets_,
                [tick](const SeenPacket& seen) { return seen.tick < tick; });
  return static_cast<int>(before - seen_packets_.size());
}

std::optional<double> NodeRuntime::FinalValue() const {
  return final_value_;
}

std::vector<NodeRuntime::AccumulatorStatus>
NodeRuntime::AccumulatorStatuses() const {
  std::vector<AccumulatorStatus> out;
  if (!round_active_) return out;
  for (const auto& [destination, slot] : accumulator_index_) {
    out.push_back(AccumulatorStatus{destination, accumulators_[slot].received,
                                    accumulators_[slot].expected});
  }
  return out;
}

std::optional<NodeRuntime::CoverageReport> NodeRuntime::DestinationCoverage()
    const {
  if (!state_.state.is_destination) return std::nullopt;
  CoverageReport report;
  const int slot = AccumulatorSlot(id_);
  if (!round_active_ || slot < 0) {
    // Round not started (or state dropped by an epoch transition): nothing
    // contributed, but the expected count is still known from the tables.
    for (const PartialTableEntry& entry : state_.state.partial_table) {
      if (entry.destination == id_) report.expected = entry.expected_contributions;
    }
    return report;
  }
  const Accumulator& accumulator = accumulators_[slot];
  report.summary = accumulator.summary;
  report.received = accumulator.received;
  report.expected = accumulator.expected;
  if (accumulator.has_record && accumulator.summary.count > 0) {
    // Guard the kinds whose evaluation divides by an accumulated weight or
    // count — an empty or zero-weight partial cannot be evaluated.
    const AggregateKind kind = accumulator.kind;
    bool evaluable = true;
    if (kind == AggregateKind::kWeightedAverage) {
      evaluable = accumulator.record.fields[1] > 0.0;
    } else if (kind == AggregateKind::kWeightedStdDev) {
      evaluable = accumulator.record.fields[2] > 0.0;
    }
    if (evaluable) {
      report.degraded_value = agg::Evaluate(kind, accumulator.record);
    }
  }
  return report;
}

}  // namespace m2m
