#ifndef M2M_PLAN_NODE_TABLES_H_
#define M2M_PLAN_NODE_TABLES_H_

#include <compare>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "agg/aggregate_function.h"
#include "plan/messaging.h"
#include "plan/planner.h"

namespace m2m {

/// Message ids in every table are *node-local*: the index of the message in
/// the node's own outgoing table, which lists the node's messages in
/// ascending schedule order. Compiled tables, wire images and decoded images
/// all use these ids, so a node's tables do not depend on how messages
/// elsewhere are numbered.

/// <s, g>: forward source s's raw value in outgoing message g.
struct RawTableEntry {
  NodeId source = kInvalidNode;
  int message_id = -1;

  friend auto operator<=>(const RawTableEntry&,
                          const RawTableEntry&) = default;
};

/// <s, d, w_{d,s}>: pre-aggregate s's raw value for destination d. The
/// pre-aggregation function itself lives in the FunctionSet; the entry
/// records that this node must apply it.
struct PreAggTableEntry {
  NodeId source = kInvalidNode;
  NodeId destination = kInvalidNode;
};

/// <d, c, m_d, g>: combine `expected_contributions` partial records for d
/// (received or locally pre-aggregated) and send the result in message g
/// (message_id == -1 when d is this node and the result is consumed
/// locally).
struct PartialTableEntry {
  NodeId destination = kInvalidNode;
  int expected_contributions = 0;
  int message_id = -1;
};

/// <g, c, n'>: outgoing message g carries `unit_count` units to `recipient`
/// over the physical `segment` (tail..recipient inclusive). A compiled
/// entry's segment is the forest edge's own, which the compiled plan keeps
/// alive; a decoded entry's is empty (routes are not part of the image).
struct OutgoingMessageEntry {
  int message_id = -1;
  int unit_count = 0;
  NodeId recipient = kInvalidNode;
  std::span<const NodeId> segment;
};

/// The tables installed at one node (paper section 3, "Implementing Node
/// Behavior"), as views: CompiledPlan::state returns one over its flat
/// arrays, and a NodeState converts to one.
struct NodeStateView {
  std::span<const RawTableEntry> raw_table;
  std::span<const PreAggTableEntry> preagg_table;
  std::span<const PartialTableEntry> partial_table;
  std::span<const OutgoingMessageEntry> outgoing_table;
  /// Destinations additionally store the evaluator e_d; flagged here.
  bool is_destination = false;

  /// Number of table entries (the unit of Theorem 3's state bound).
  int entry_count() const {
    return static_cast<int>(raw_table.size() + preagg_table.size() +
                            partial_table.size() + outgoing_table.size()) +
           (is_destination ? 1 : 0);
  }
};

/// One node's tables, owned: what a node decodes from its wire image.
struct NodeState {
  std::vector<RawTableEntry> raw_table;
  std::vector<PreAggTableEntry> preagg_table;
  std::vector<PartialTableEntry> partial_table;
  std::vector<OutgoingMessageEntry> outgoing_table;
  bool is_destination = false;

  // Implicit, as std::string converts to std::string_view.
  operator NodeStateView() const {
    return NodeStateView{raw_table, preagg_table, partial_table,
                         outgoing_table, is_destination};
  }
  int entry_count() const { return NodeStateView(*this).entry_count(); }
};

/// Aggregate state-size accounting for Theorem 3.
struct StateTotals {
  int64_t raw_entries = 0;
  int64_t preagg_entries = 0;
  int64_t partial_entries = 0;
  int64_t outgoing_entries = 0;
  int64_t evaluator_entries = 0;
  int64_t total() const {
    return raw_entries + preagg_entries + partial_entries +
           outgoing_entries + evaluator_entries;
  }
  /// Theorem 3 reference quantities: sum of multicast tree sizes and sum of
  /// aggregation tree sizes.
  int64_t sum_multicast_tree_sizes = 0;
  int64_t sum_aggregation_tree_sizes = 0;
};

/// A GlobalPlan compiled into per-node tables plus its message schedule:
/// everything a node needs at runtime.
class CompiledPlan {
 public:
  /// `plan_epoch` versions the compiled tables for failure handling: every
  /// base-station re-plan compiles with a bumped epoch, the epoch is stamped
  /// into each node's wire image, and the runtime refuses to merge partials
  /// across epochs (see docs/THEORY.md section 8). The compiled plan owns
  /// `plan`: pass an rvalue to hand it over without a copy.
  static CompiledPlan Compile(GlobalPlan plan,
                              const FunctionSet& functions,
                              MergePolicy policy =
                                  MergePolicy::kGreedyMergePerEdge,
                              uint32_t plan_epoch = 0);

  CompiledPlan(const CompiledPlan&) = default;
  CompiledPlan& operator=(const CompiledPlan&) = default;
  CompiledPlan(CompiledPlan&&) noexcept = default;
  CompiledPlan& operator=(CompiledPlan&&) noexcept = default;

  const GlobalPlan& plan() const { return *plan_; }
  const MessageSchedule& schedule() const { return schedule_; }
  /// The tables of `node`, viewing this plan's arrays: valid while the
  /// plan lives.
  NodeStateView state(NodeId node) const;
  int node_count() const { return static_cast<int>(offsets_.size()) - 1; }
  uint32_t plan_epoch() const { return plan_epoch_; }

  StateTotals ComputeStateTotals() const;

 private:
  /// Where one node's tables start in each flat array; node n's entries of
  /// a table run to node n + 1's start.
  struct TableOffsets {
    int raw = 0;
    int preagg = 0;
    int partial = 0;
    int outgoing = 0;
  };

  CompiledPlan(std::shared_ptr<const GlobalPlan> plan,
               MessageSchedule schedule, uint32_t plan_epoch)
      : plan_(std::move(plan)),
        schedule_(std::move(schedule)),
        plan_epoch_(plan_epoch) {}

  std::shared_ptr<const GlobalPlan> plan_;
  MessageSchedule schedule_;
  /// Every node's tables, node by node; offsets_ has node_count() + 1
  /// entries.
  std::vector<RawTableEntry> raw_;
  std::vector<PreAggTableEntry> preagg_;
  std::vector<PartialTableEntry> partial_;
  std::vector<OutgoingMessageEntry> outgoing_;
  std::vector<TableOffsets> offsets_;
  std::vector<uint8_t> is_destination_;
  uint32_t plan_epoch_ = 0;
};

}  // namespace m2m

#endif  // M2M_PLAN_NODE_TABLES_H_
