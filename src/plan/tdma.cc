#include "plan/tdma.h"

#include <algorithm>
#include <map>
#include <queue>
#include <set>

#include "common/check.h"

namespace m2m {

namespace {

// Message-level dependencies derived from the unit wait-for graph.
std::vector<std::vector<int>> MessageDeps(const MessageSchedule& schedule) {
  const int message_count = static_cast<int>(schedule.messages().size());
  std::vector<std::set<int>> deps(message_count);
  for (size_t v = 0; v < schedule.units().size(); ++v) {
    int mv = schedule.message_of_unit(static_cast<int>(v));
    for (int u : schedule.wait_for(static_cast<int>(v))) {
      int mu = schedule.message_of_unit(u);
      if (mu != mv) deps[mv].insert(mu);
    }
  }
  std::vector<std::vector<int>> out(message_count);
  for (int m = 0; m < message_count; ++m) {
    out[m].assign(deps[m].begin(), deps[m].end());
  }
  return out;
}

bool Conflicts(const Topology& topology, NodeId sender_a, NodeId receiver_a,
               NodeId sender_b, NodeId receiver_b) {
  // Shared node: a radio cannot do two things in one slot.
  if (sender_a == sender_b || sender_a == receiver_b ||
      receiver_a == sender_b || receiver_a == receiver_b) {
    return true;
  }
  // Protocol interference: a sender in range of the other's receiver.
  return topology.AreNeighbors(sender_a, receiver_b) ||
         topology.AreNeighbors(sender_b, receiver_a);
}

}  // namespace

int64_t TdmaSchedule::total_listen_slots() const {
  int64_t total = 0;
  for (int slots : listen_slots) total += slots;
  return total;
}

TdmaSchedule BuildTdmaSchedule(const CompiledPlan& compiled,
                               const Topology& topology) {
  const MessageSchedule& schedule = compiled.schedule();
  const MulticastForest& forest = compiled.plan().forest();
  const int message_count = static_cast<int>(schedule.messages().size());
  std::vector<std::vector<int>> deps = MessageDeps(schedule);

  // Topological order over messages (Kahn).
  std::vector<int> unmet(message_count);
  std::vector<std::vector<int>> dependents(message_count);
  std::queue<int> ready;
  for (int m = 0; m < message_count; ++m) {
    unmet[m] = static_cast<int>(deps[m].size());
    for (int d : deps[m]) dependents[d].push_back(m);
    if (unmet[m] == 0) ready.push(m);
  }
  std::vector<int> order;
  order.reserve(message_count);
  while (!ready.empty()) {
    int m = ready.front();
    ready.pop();
    order.push_back(m);
    for (int d : dependents[m]) {
      if (--unmet[d] == 0) ready.push(d);
    }
  }
  M2M_CHECK_EQ(static_cast<int>(order.size()), message_count)
      << "message dependency cycle";

  TdmaSchedule result;
  result.listen_slots.assign(topology.node_count(), 0);
  // Per slot, the hop transmissions already placed there.
  std::vector<std::vector<std::pair<NodeId, NodeId>>> slots;
  std::vector<int> message_done_slot(message_count, -1);

  for (int m : order) {
    int earliest = 0;
    for (int d : deps[m]) {
      earliest = std::max(earliest, message_done_slot[d] + 1);
    }
    const std::vector<NodeId>& segment =
        forest.edges()[schedule.messages()[m].edge_index].segment;
    int previous_slot = earliest - 1;
    for (size_t h = 0; h + 1 < segment.size(); ++h) {
      NodeId sender = segment[h];
      NodeId receiver = segment[h + 1];
      int slot = previous_slot + 1;
      while (true) {
        if (slot >= static_cast<int>(slots.size())) {
          slots.resize(slot + 1);
        }
        bool clash = false;
        for (const auto& [other_sender, other_receiver] : slots[slot]) {
          if (Conflicts(topology, sender, receiver, other_sender,
                        other_receiver)) {
            clash = true;
            break;
          }
        }
        if (!clash) break;
        ++slot;
      }
      slots[slot].emplace_back(sender, receiver);
      result.assignments.push_back(
          TdmaAssignment{m, static_cast<int>(h), sender, receiver, slot});
      result.listen_slots[receiver] += 1;
      previous_slot = slot;
    }
    message_done_slot[m] = previous_slot;
  }
  result.slot_count = static_cast<int>(slots.size());
  M2M_CHECK(ValidateTdmaSchedule(result, compiled, topology));
  return result;
}

bool ValidateTdmaSchedule(const TdmaSchedule& schedule,
                          const CompiledPlan& compiled,
                          const Topology& topology) {
  // Interference freedom per slot.
  std::map<int, std::vector<const TdmaAssignment*>> by_slot;
  for (const TdmaAssignment& a : schedule.assignments) {
    if (a.slot < 0 || a.slot >= schedule.slot_count) return false;
    by_slot[a.slot].push_back(&a);
  }
  for (const auto& [slot, list] : by_slot) {
    for (size_t i = 0; i < list.size(); ++i) {
      for (size_t j = i + 1; j < list.size(); ++j) {
        if (Conflicts(topology, list[i]->sender, list[i]->receiver,
                      list[j]->sender, list[j]->receiver)) {
          return false;
        }
      }
    }
  }
  // Hop ordering within each message, and dependency ordering across
  // messages.
  const MessageSchedule& messages = compiled.schedule();
  std::map<std::pair<int, int>, int> slot_of;  // (message, hop) -> slot
  std::map<int, int> last_slot;
  for (const TdmaAssignment& a : schedule.assignments) {
    slot_of[{a.message, a.hop}] = a.slot;
    auto [it, inserted] = last_slot.emplace(a.message, a.slot);
    if (!inserted) it->second = std::max(it->second, a.slot);
  }
  for (const TdmaAssignment& a : schedule.assignments) {
    if (a.hop > 0) {
      auto prev = slot_of.find({a.message, a.hop - 1});
      if (prev == slot_of.end() || prev->second >= a.slot) return false;
    }
  }
  std::vector<std::vector<int>> deps = MessageDeps(messages);
  for (size_t m = 0; m < deps.size(); ++m) {
    auto first = slot_of.find({static_cast<int>(m), 0});
    if (first == slot_of.end()) continue;  // Zero-hop message (none exist).
    for (int d : deps[m]) {
      auto done = last_slot.find(d);
      if (done == last_slot.end()) continue;
      if (done->second >= first->second) return false;
    }
  }
  return true;
}

}  // namespace m2m
