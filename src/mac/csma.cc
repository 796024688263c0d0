#include "mac/csma.h"

#include <algorithm>
#include <queue>
#include <set>

#include "common/check.h"

namespace m2m {

namespace {

// Ack turnaround between a reception and the next event that depends on it.
constexpr double kTurnaroundMs = 0.5;

struct Event {
  double time = 0.0;
  enum class Kind { kTryStart, kEnd } kind = Kind::kTryStart;
  int message = -1;
  int transmission = -1;
  int64_t seq = 0;  // Tie-breaker for determinism.

  friend bool operator>(const Event& a, const Event& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

struct Transmission {
  NodeId sender = kInvalidNode;
  NodeId receiver = kInvalidNode;
  int message = -1;
  double end_time = 0.0;
  bool corrupted = false;
  bool active = false;
};

struct MessageState {
  int deps_remaining = 0;
  std::vector<int> dependents;
  int hop = 0;           // Next hop index to transmit.
  int retries = 0;       // Collision retries on the current hop.
  bool failed = false;
  bool delivered = false;
};

}  // namespace

CsmaSimulator::CsmaSimulator(std::shared_ptr<const CompiledPlan> compiled,
                             const Topology& topology, EnergyModel energy,
                             CsmaConfig config)
    : compiled_(std::move(compiled)),
      topology_(&topology),
      energy_(energy),
      config_(config) {
  M2M_CHECK(compiled_ != nullptr);
  const MessageSchedule& schedule = compiled_->schedule();
  const int message_count = static_cast<int>(schedule.messages().size());
  message_deps_.resize(message_count);
  message_payload_.assign(message_count, 0);
  std::vector<std::set<int>> deps(message_count);
  for (size_t v = 0; v < schedule.units().size(); ++v) {
    int mv = schedule.message_of_unit(static_cast<int>(v));
    message_payload_[mv] += schedule.units()[v].unit_bytes;
    for (int u : schedule.wait_for(static_cast<int>(v))) {
      int mu = schedule.message_of_unit(u);
      if (mu != mv) deps[mv].insert(mu);
    }
  }
  for (int m = 0; m < message_count; ++m) {
    message_deps_[m].assign(deps[m].begin(), deps[m].end());
  }
}

MacRoundResult CsmaSimulator::RunRound(uint64_t seed) const {
  const MessageSchedule& schedule = compiled_->schedule();
  const MulticastForest& forest = compiled_->plan().forest();
  const int message_count = static_cast<int>(schedule.messages().size());
  Rng rng(seed);

  MacRoundResult result;
  result.node_energy_mj.assign(topology_->node_count(), 0.0);
  auto charge = [&](NodeId node, double uj) {
    result.node_energy_mj[node] += uj / 1000.0;
    result.energy_mj += uj / 1000.0;
  };

  std::vector<MessageState> states(message_count);
  for (int m = 0; m < message_count; ++m) {
    states[m].deps_remaining = static_cast<int>(message_deps_[m].size());
    for (int dep : message_deps_[m]) states[dep].dependents.push_back(m);
  }

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue;
  int64_t next_seq = 0;
  auto schedule_event = [&](double time, Event::Kind kind, int message,
                            int transmission) {
    queue.push(Event{time, kind, message, transmission, next_seq++});
  };

  // Desynchronized kickoff for dependency-free messages.
  for (int m = 0; m < message_count; ++m) {
    if (states[m].deps_remaining == 0) {
      schedule_event(rng.UniformDouble(0.0, 5.0), Event::Kind::kTryStart, m,
                     -1);
    }
  }

  std::vector<Transmission> transmissions;
  auto segment_of = [&](int m) -> const std::vector<NodeId>& {
    return forest.edges()[schedule.messages()[m].edge_index].segment;
  };
  auto backoff = [&](int retries) {
    double window = std::min(config_.backoff_init_ms * (1 << std::min(retries, 10)),
                             config_.backoff_max_ms);
    return rng.UniformDouble(0.0, window);
  };

  double clock = 0.0;
  while (!queue.empty()) {
    Event event = queue.top();
    queue.pop();
    clock = event.time;
    M2M_CHECK_LT(clock, 1e7) << "MAC simulation failed to converge";

    if (event.kind == Event::Kind::kTryStart) {
      MessageState& state = states[event.message];
      if (state.failed) continue;
      const std::vector<NodeId>& segment = segment_of(event.message);
      NodeId sender = segment[state.hop];
      NodeId receiver = segment[state.hop + 1];
      // Carrier sense: defer while any active transmitter is within range
      // of the sender (or the sender/receiver is itself busy sending).
      bool busy = false;
      for (const Transmission& t : transmissions) {
        if (!t.active) continue;
        if (t.sender == sender || t.sender == receiver ||
            topology_->AreNeighbors(t.sender, sender)) {
          busy = true;
          break;
        }
      }
      if (busy) {
        ++result.busy_backoffs;
        schedule_event(clock + backoff(state.retries) + 0.1,
                       Event::Kind::kTryStart, event.message, -1);
        continue;
      }
      // Start transmitting.
      double duration =
          config_.BytesToMs(energy_.header_bytes +
                            message_payload_[event.message]);
      int id = static_cast<int>(transmissions.size());
      Transmission t;
      t.sender = sender;
      t.receiver = receiver;
      t.message = event.message;
      t.end_time = clock + duration;
      t.active = true;
      // Protocol interference: corrupt any active reception in range of the
      // new sender, and the new reception if any active sender is in range
      // of its receiver.
      for (Transmission& other : transmissions) {
        if (!other.active) continue;
        if (other.receiver == sender ||
            topology_->AreNeighbors(other.receiver, sender)) {
          other.corrupted = true;
        }
        if (other.sender == receiver ||
            topology_->AreNeighbors(other.sender, receiver)) {
          t.corrupted = true;
        }
      }
      transmissions.push_back(t);
      ++result.attempts;
      charge(sender, energy_.TxUj(message_payload_[event.message]));
      schedule_event(t.end_time, Event::Kind::kEnd, event.message, id);
      continue;
    }

    // Event::Kind::kEnd
    Transmission& t = transmissions[event.transmission];
    t.active = false;
    MessageState& state = states[event.message];
    // The receiver listened for the whole frame either way.
    charge(t.receiver, energy_.RxUj(message_payload_[event.message]));
    if (t.corrupted) {
      ++result.collisions;
      if (++state.retries > config_.max_retries) {
        state.failed = true;
        result.hops_failed +=
            static_cast<int64_t>(segment_of(event.message).size()) - 1 -
            state.hop;
        continue;
      }
      schedule_event(clock + backoff(state.retries), Event::Kind::kTryStart,
                     event.message, -1);
      continue;
    }
    // Successful hop: link-layer acknowledgment both ways.
    charge(t.receiver, energy_.TxUj(config_.ack_payload_bytes));
    charge(t.sender, energy_.RxUj(config_.ack_payload_bytes));
    ++result.hops_delivered;
    state.retries = 0;
    state.hop += 1;
    result.completion_ms = std::max(result.completion_ms, clock);
    if (state.hop + 1 < static_cast<int>(segment_of(event.message).size())) {
      schedule_event(clock + kTurnaroundMs, Event::Kind::kTryStart,
                     event.message, -1);
      continue;
    }
    // Message fully delivered: release dependents.
    state.delivered = true;
    for (int dependent : states[event.message].dependents) {
      if (--states[dependent].deps_remaining == 0 &&
          !states[dependent].failed) {
        schedule_event(clock + kTurnaroundMs + rng.UniformDouble(0.0, 2.0),
                       Event::Kind::kTryStart, dependent, -1);
      }
    }
  }
  return result;
}

}  // namespace m2m
