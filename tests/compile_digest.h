#ifndef M2M_TESTS_COMPILE_DIGEST_H_
#define M2M_TESTS_COMPILE_DIGEST_H_

// FNV-1a-64 digests of everything CompiledPlan::Compile produces, for the
// golden tests that pin the compile output: the message schedule (units,
// wait-for lists and message packing), the wire images of every node and the
// Theorem 3 state totals. Also a check that compiled tables equal the tables
// decoded from their wire images.

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <optional>
#include <span>
#include <sstream>
#include <string>

#include "plan/node_tables.h"
#include "plan/serialization.h"

namespace m2m {

class Fnv1a64 {
 public:
  /// Folds `value` in as eight little-endian bytes.
  void Add(uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

inline std::string HexDigest(uint64_t digest) {
  std::ostringstream out;
  out << std::hex << std::setw(16) << std::setfill('0') << digest;
  return out.str();
}

struct CompileDigests {
  Fnv1a64 schedule;
  Fnv1a64 images;
  Fnv1a64 totals;

  /// Folds one compiled plan into the three digests.
  void Add(const CompiledPlan& compiled, const FunctionSet& functions) {
    const MessageSchedule& s = compiled.schedule();
    schedule.Add(s.units().size());
    for (const MessageUnit& unit : s.units()) {
      schedule.Add(static_cast<uint64_t>(unit.edge_index));
      schedule.Add(unit.is_partial ? 1 : 0);
      schedule.Add(static_cast<uint64_t>(unit.subject));
      schedule.Add(static_cast<uint64_t>(unit.unit_bytes));
    }
    for (int v = 0; v < static_cast<int>(s.units().size()); ++v) {
      const std::span<const int> upstream = s.wait_for(v);
      schedule.Add(upstream.size());
      for (int u : upstream) schedule.Add(static_cast<uint64_t>(u));
    }
    schedule.Add(s.messages().size());
    for (const MessageSchedule::Message& message : s.messages()) {
      schedule.Add(static_cast<uint64_t>(message.edge_index));
      schedule.Add(message.unit_ids.size());
      for (int u : message.unit_ids) schedule.Add(static_cast<uint64_t>(u));
    }

    for (const std::vector<uint8_t>& image :
         EncodeAllNodeStates(compiled, functions)) {
      images.Add(image.size());
      for (uint8_t byte : image) images.Add(byte);
    }

    const StateTotals t = compiled.ComputeStateTotals();
    for (int64_t v : {t.raw_entries, t.preagg_entries, t.partial_entries,
                      t.outgoing_entries, t.evaluator_entries,
                      t.sum_multicast_tree_sizes,
                      t.sum_aggregation_tree_sizes}) {
      totals.Add(static_cast<uint64_t>(v));
    }
  }

  /// "schedule/images/totals" as three hex digests.
  std::string ToString() const {
    return HexDigest(schedule.value()) + "/" + HexDigest(images.value()) +
           "/" + HexDigest(totals.value());
  }
};

/// The first difference between a node's compiled tables and the tables
/// decoded from its wire image, as "node <n>: <table>", or "" if there is
/// none. Every entry of all four tables is compared, message ids included
/// (both sides use node-local ids), as are the destination flag and the
/// epoch. Outgoing segments are not part of the image.
inline std::string CompiledDecodedDifference(const CompiledPlan& compiled,
                                             const FunctionSet& functions) {
  for (NodeId n = 0; n < compiled.node_count(); ++n) {
    const NodeStateView state = compiled.state(n);
    const std::optional<DecodedNodeState> decoded = TryDecodeNodeState(
        EncodeNodeState(state, functions, compiled.plan_epoch()));
    const std::string where = "node " + std::to_string(n) + ": ";
    if (!decoded.has_value()) return where + "image does not decode";
    const NodeState& tables = decoded->state;
    if (!std::ranges::equal(state.raw_table, tables.raw_table)) {
      return where + "raw table";
    }
    if (!std::ranges::equal(
            state.preagg_table, tables.preagg_table,
            [](const PreAggTableEntry& a, const PreAggTableEntry& b) {
              return a.source == b.source && a.destination == b.destination;
            })) {
      return where + "pre-aggregation table";
    }
    if (!std::ranges::equal(
            state.partial_table, tables.partial_table,
            [](const PartialTableEntry& a, const PartialTableEntry& b) {
              return a.destination == b.destination &&
                     a.expected_contributions == b.expected_contributions &&
                     a.message_id == b.message_id;
            })) {
      return where + "partial table";
    }
    if (!std::ranges::equal(
            state.outgoing_table, tables.outgoing_table,
            [](const OutgoingMessageEntry& a, const OutgoingMessageEntry& b) {
              return a.message_id == b.message_id &&
                     a.unit_count == b.unit_count &&
                     a.recipient == b.recipient;
            })) {
      return where + "outgoing table";
    }
    if (state.is_destination != tables.is_destination) {
      return where + "destination flag";
    }
    if (decoded->plan_epoch != compiled.plan_epoch()) return where + "epoch";
  }
  return "";
}

}  // namespace m2m

#endif  // M2M_TESTS_COMPILE_DIGEST_H_
