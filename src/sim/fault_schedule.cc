#include "sim/fault_schedule.h"

#include <algorithm>
#include <queue>
#include <set>
#include <sstream>

#include "common/check.h"
#include "common/rng.h"

namespace m2m {

namespace {

// Live-subgraph connectivity: BFS over `topology` restricted to alive
// nodes. Used to reject persistent faults that would partition survivors.
bool AliveSubgraphConnected(
    const Topology& topology, const std::vector<bool>& alive,
    const std::unordered_set<uint64_t>& failed_links) {
  const int n = topology.node_count();
  NodeId start = kInvalidNode;
  int alive_count = 0;
  for (NodeId u = 0; u < n; ++u) {
    if (!alive[u]) continue;
    ++alive_count;
    if (start == kInvalidNode) start = u;
  }
  if (alive_count <= 1) return true;
  std::vector<bool> seen(n, false);
  std::queue<NodeId> frontier;
  seen[start] = true;
  frontier.push(start);
  int reached = 1;
  while (!frontier.empty()) {
    NodeId u = frontier.front();
    frontier.pop();
    for (NodeId v : topology.neighbors(u)) {
      if (seen[v] || !alive[v] || failed_links.contains(PackLink(u, v))) {
        continue;
      }
      seen[v] = true;
      ++reached;
      frontier.push(v);
    }
  }
  return reached == alive_count;
}

}  // namespace

std::string ToString(FaultType type) {
  switch (type) {
    case FaultType::kTransientLink:
      return "transient-link";
    case FaultType::kPersistentLink:
      return "persistent-link";
    case FaultType::kNodeDeath:
      return "node-death";
    case FaultType::kLinkHeal:
      return "link-heal";
    case FaultType::kNodeRecover:
      return "node-recover";
  }
  return "unknown";
}

FaultSchedule FaultSchedule::Generate(
    const Topology& topology, const std::vector<NodeId>& protected_nodes,
    const FaultScheduleOptions& options) {
  M2M_CHECK_GE(options.rounds, 2);
  FaultSchedule schedule;
  schedule.options_ = options;
  Rng rng(SplitMix64(options.seed ^ 0xfa017));

  std::vector<bool> is_protected(topology.node_count(), false);
  for (NodeId n : protected_nodes) is_protected[n] = true;

  // Candidate persistent events, each with a random activation round; we
  // walk them chronologically and accept one only if the alive subgraph
  // stays connected, so every intermediate state is recoverable.
  struct Candidate {
    FaultEvent event;
    uint64_t order;
  };
  std::vector<Candidate> candidates;
  std::vector<NodeId> death_pool;
  for (NodeId n = 0; n < topology.node_count(); ++n) {
    if (!is_protected[n]) death_pool.push_back(n);
  }
  rng.Shuffle(death_pool);
  int deaths = std::min<int>(options.node_deaths,
                             static_cast<int>(death_pool.size()));
  for (int i = 0; i < deaths; ++i) {
    FaultEvent event;
    event.round = 1 + static_cast<int>(rng.UniformInt(options.rounds - 1));
    event.type = FaultType::kNodeDeath;
    event.a = death_pool[i];
    candidates.push_back(Candidate{event, rng.Next()});
  }
  std::vector<std::pair<NodeId, NodeId>> link_pool;
  for (NodeId a = 0; a < topology.node_count(); ++a) {
    for (NodeId b : topology.neighbors(a)) {
      if (a < b) link_pool.emplace_back(a, b);
    }
  }
  rng.Shuffle(link_pool);
  int failures = std::min<int>(options.persistent_link_failures,
                               static_cast<int>(link_pool.size()));
  for (int i = 0; i < failures; ++i) {
    FaultEvent event;
    event.round = 1 + static_cast<int>(rng.UniformInt(options.rounds - 1));
    event.type = FaultType::kPersistentLink;
    event.a = link_pool[i].first;
    event.b = link_pool[i].second;
    candidates.push_back(Candidate{event, rng.Next()});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& x, const Candidate& y) {
              if (x.event.round != y.event.round) {
                return x.event.round < y.event.round;
              }
              return x.order < y.order;
            });

  std::vector<bool> alive(topology.node_count(), true);
  std::unordered_set<uint64_t> failed;
  for (const Candidate& candidate : candidates) {
    const FaultEvent& event = candidate.event;
    if (event.type == FaultType::kNodeDeath) {
      alive[event.a] = false;
      if (!AliveSubgraphConnected(topology, alive, failed)) {
        alive[event.a] = true;  // Would strand survivors; skip.
        continue;
      }
    } else {
      uint64_t key = PackLink(event.a, event.b);
      failed.insert(key);
      if (!AliveSubgraphConnected(topology, alive, failed)) {
        failed.erase(key);
        continue;
      }
    }
    schedule.events_.push_back(event);
  }

  // Recoveries: the first `node_recoveries` accepted deaths and the first
  // `link_heals` accepted link failures come back after
  // `recovery_delay_rounds`. Recoveries only restore capacity, so the
  // connectivity invariant established above cannot be violated. A
  // recovery that would land past the schedule is dropped (the fault is
  // then effectively permanent).
  const int delay = std::max(1, options.recovery_delay_rounds);
  int recoveries_left = options.node_recoveries;
  int heals_left = options.link_heals;
  std::vector<FaultEvent> recoveries;
  for (const FaultEvent& event : schedule.events_) {
    const int recover_round = event.round + delay;
    if (recover_round >= options.rounds) continue;
    if (event.type == FaultType::kNodeDeath && recoveries_left > 0) {
      --recoveries_left;
      recoveries.push_back(FaultEvent{recover_round,
                                      FaultType::kNodeRecover, event.a,
                                      kInvalidNode});
    } else if (event.type == FaultType::kPersistentLink && heals_left > 0) {
      --heals_left;
      recoveries.push_back(FaultEvent{recover_round, FaultType::kLinkHeal,
                                      event.a, event.b});
    }
  }
  schedule.events_.insert(schedule.events_.end(), recoveries.begin(),
                          recoveries.end());

  // Transient flaky links, drawn per round from a forked stream so the
  // persistent draw above doesn't shift them.
  Rng transient_rng = rng.Fork(0x71a);
  for (int round = 0; round < options.rounds; ++round) {
    int flaky = 0;
    for (const auto& [a, b] : link_pool) {
      if (!transient_rng.Bernoulli(options.transient_link_fraction)) {
        continue;
      }
      schedule.transient_.resize(static_cast<size_t>(round) + 1);
      schedule.transient_.back().insert(PackLink(a, b));
      FaultEvent event;
      event.round = round;
      event.type = FaultType::kTransientLink;
      event.a = std::min(a, b);
      event.b = std::max(a, b);
      schedule.events_.push_back(event);
      ++flaky;
    }
    (void)flaky;
  }

  std::sort(schedule.events_.begin(), schedule.events_.end(),
            [](const FaultEvent& x, const FaultEvent& y) {
              if (x.round != y.round) return x.round < y.round;
              if (x.type != y.type) return x.type < y.type;
              if (x.a != y.a) return x.a < y.a;
              return x.b < y.b;
            });
  schedule.touched_.assign(static_cast<size_t>(topology.node_count()), 0);
  for (const FaultEvent& event : schedule.events_) {
    if (event.type == FaultType::kTransientLink) continue;
    schedule.persistent_.push_back(event);
    schedule.touched_[event.a] = 1;
    if (event.b != kInvalidNode) schedule.touched_[event.b] = 1;
  }
  return schedule;
}

bool FaultSchedule::MayBeTouched(NodeId n) const {
  return n < 0 || static_cast<size_t>(n) >= touched_.size() ||
         touched_[static_cast<size_t>(n)] != 0;
}

std::vector<FaultEvent> FaultSchedule::PersistentEventsAt(int round) const {
  std::vector<FaultEvent> out;
  for (const FaultEvent& event : persistent_) {
    if (event.round > round) break;
    if (event.round == round) out.push_back(event);
  }
  return out;
}

bool FaultSchedule::NodeAliveAt(int round, NodeId n) const {
  if (!MayBeTouched(n)) return true;
  // Interval semantics: the latest death/recovery at or before `round`
  // wins (persistent_ is sorted by round).
  bool alive = true;
  for (const FaultEvent& event : persistent_) {
    if (event.round > round) break;
    if (event.a != n) continue;
    if (event.type == FaultType::kNodeDeath) alive = false;
    if (event.type == FaultType::kNodeRecover) alive = true;
  }
  return alive;
}

std::vector<NodeId> FaultSchedule::DeadNodesThrough(int round) const {
  std::set<NodeId> dead;
  for (const FaultEvent& event : persistent_) {
    if (event.round > round) break;
    if (event.type == FaultType::kNodeDeath) dead.insert(event.a);
    if (event.type == FaultType::kNodeRecover) dead.erase(event.a);
  }
  return {dead.begin(), dead.end()};
}

std::vector<std::pair<NodeId, NodeId>> FaultSchedule::FailedLinksThrough(
    int round) const {
  std::set<std::pair<NodeId, NodeId>> failed;
  for (const FaultEvent& event : persistent_) {
    if (event.round > round) break;
    if (event.type == FaultType::kPersistentLink) {
      failed.emplace(event.a, event.b);
    }
    if (event.type == FaultType::kLinkHeal) {
      failed.erase({event.a, event.b});
    }
  }
  return {failed.begin(), failed.end()};
}

bool FaultSchedule::AttemptDelivers(int round, NodeId from, NodeId to,
                                    int attempt) const {
  const uint64_t link = PackLink(from, to);
  if (MayBeTouched(from) || MayBeTouched(to)) {
    bool from_alive = true;
    bool to_alive = true;
    bool link_up = true;
    for (const FaultEvent& event : persistent_) {
      if (event.round > round) break;
      switch (event.type) {
        case FaultType::kTransientLink:
          break;
        case FaultType::kNodeDeath:
          if (event.a == from) from_alive = false;
          if (event.a == to) to_alive = false;
          break;
        case FaultType::kNodeRecover:
          if (event.a == from) from_alive = true;
          if (event.a == to) to_alive = true;
          break;
        case FaultType::kPersistentLink:
          if (PackLink(event.a, event.b) == link) link_up = false;
          break;
        case FaultType::kLinkHeal:
          if (PackLink(event.a, event.b) == link) link_up = true;
          break;
      }
    }
    if (!from_alive || !to_alive || !link_up) return false;
  }
  if (static_cast<size_t>(round) >= transient_.size() ||
      !transient_[static_cast<size_t>(round)].contains(link)) {
    return true;
  }
  // Stateless per-attempt draw: hash of (seed, round, directed link,
  // attempt) to a uniform double. Direction matters so data and ack
  // attempts over the same link draw independently.
  uint64_t h = SplitMix64(
      options_.seed ^
      (static_cast<uint64_t>(round) << 48) ^
      (static_cast<uint64_t>(static_cast<uint32_t>(from)) << 26) ^
      (static_cast<uint64_t>(static_cast<uint32_t>(to)) << 5) ^
      static_cast<uint64_t>(attempt));
  double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u >= options_.transient_drop_probability;
}

std::string FaultSchedule::Describe() const {
  std::ostringstream os;
  os << "fault-schedule seed=" << options_.seed
     << " rounds=" << options_.rounds << " p_drop=";
  os << options_.transient_drop_probability << "\n";
  for (const FaultEvent& event : events_) {
    os << "  r" << event.round << " " << ToString(event.type) << " "
       << event.a;
    if (event.b != kInvalidNode) os << "-" << event.b;
    os << "\n";
  }
  return os.str();
}

}  // namespace m2m
