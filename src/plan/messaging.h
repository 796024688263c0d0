#ifndef M2M_PLAN_MESSAGING_H_
#define M2M_PLAN_MESSAGING_H_

#include <ranges>
#include <vector>

#include "agg/aggregate_function.h"
#include "plan/planner.h"

namespace m2m {

/// One message unit: a raw value or a partial aggregate record traveling on
/// one forest edge (paper section 3).
struct MessageUnit {
  int edge_index = -1;
  bool is_partial = false;  ///< false: raw value, subject = source id.
  NodeId subject = kInvalidNode;
  int unit_bytes = 0;
};

/// How units are packed into messages.
enum class MergePolicy {
  /// The paper's greedy merge: units on the same edge are merged into as few
  /// messages as possible without creating wait-for cycles (in all
  /// experiments this yields one message per edge).
  kGreedyMergePerEdge,
  /// Each unit ships in its own message (the "straightforward, though
  /// suboptimal" scheme Theorem 2 enables). Used by the merge ablation.
  kOneUnitPerMessage,
};

/// The message-level realization of a plan: the wait-for DAG over units
/// (Theorem 2 guarantees acyclicity) and the packing of units into
/// messages.
class MessageSchedule {
 public:
  struct Message {
    int edge_index = -1;
    std::vector<int> unit_ids;
  };

  static MessageSchedule Build(const GlobalPlan& plan,
                               const FunctionSet& functions,
                               MergePolicy policy);

  MessageSchedule(const MessageSchedule&) = default;
  MessageSchedule& operator=(const MessageSchedule&) = default;
  MessageSchedule(MessageSchedule&&) noexcept = default;
  MessageSchedule& operator=(MessageSchedule&&) noexcept = default;

  const std::vector<MessageUnit>& units() const { return units_; }
  /// wait_for()[u] = ids of units that unit u waits for, ascending.
  const std::vector<std::vector<int>>& wait_for() const { return wait_for_; }
  const std::vector<Message>& messages() const { return messages_; }

  /// Unit ids on a given edge. Each edge's units are consecutive ids: its
  /// raw units in ascending source order, then its partial units in
  /// ascending destination order.
  std::ranges::iota_view<int, int> units_on_edge(int edge_index) const;

  /// Id of the unit carrying `subject` on `edge_index` (raw value of source
  /// `subject`, or partial record of destination `subject`); CHECK-fails if
  /// the edge carries no such unit.
  int UnitOf(int edge_index, bool is_partial, NodeId subject) const;

  /// Id of the message carrying `unit_id`.
  int message_of_unit(int unit_id) const;

  /// True iff the unit wait-for graph has no cycles (Theorem 2).
  bool UnitsAcyclic() const;

  /// Topological order of units; CHECK-fails if cyclic.
  std::vector<int> TopologicalUnitOrder() const;

  /// True iff the *message* graph (wait-for lifted to messages) is acyclic;
  /// the greedy merge maintains this invariant.
  bool MessagesAcyclic() const;

  int64_t message_count() const {
    return static_cast<int64_t>(messages_.size());
  }

 private:
  MessageSchedule() = default;

  /// True iff the wait-for graph lifted to messages by `msg_of_unit` (ids
  /// below `message_count`) is acyclic.
  bool MessageGraphAcyclic(const std::vector<int>& msg_of_unit,
                           int message_count) const;

  std::vector<MessageUnit> units_;
  std::vector<std::vector<int>> wait_for_;
  std::vector<Message> messages_;
  /// Units of edge e are ids [edge_unit_begin_[e], edge_unit_begin_[e + 1]).
  std::vector<int> edge_unit_begin_;
  std::vector<int> message_of_unit_;
};

}  // namespace m2m

#endif  // M2M_PLAN_MESSAGING_H_
