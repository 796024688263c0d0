#ifndef M2M_SIM_FAULT_SCHEDULE_H_
#define M2M_SIM_FAULT_SCHEDULE_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "topology/topology.h"

namespace m2m {

/// Kind of injected fault (paper section 3 failure handling).
enum class FaultType : uint8_t {
  /// The link is flaky for one round: each transmission attempt across it
  /// independently drops with the schedule's drop probability. Ack/retry at
  /// the runtime layer recovers from these without touching the plan.
  kTransientLink,
  /// The link is down from `round` onward (until a scheduled kLinkHeal, if
  /// any); recovery requires re-routing and a (local, Corollary 1) re-plan.
  kPersistentLink,
  /// The node is dead from `round` onward (until a scheduled kNodeRecover,
  /// if any): it neither transmits nor receives, and it stops being a
  /// source. Recovery removes it from the workload and re-plans.
  kNodeDeath,
  /// A previously failed link carries traffic again from `round` onward.
  /// Monitors readmit it through detector probation and the base station
  /// re-plans over it.
  kLinkHeal,
  /// A previously dead node rejoins from `round` onward: it boots with its
  /// last installed (now stale) plan image and must be readmitted and
  /// re-imaged before it contributes again.
  kNodeRecover,
};

std::string ToString(FaultType type);

/// One scheduled fault. Transient faults affect only their round;
/// persistent faults take effect at the start of their round and last for
/// the rest of the schedule.
struct FaultEvent {
  int round = 0;
  FaultType type = FaultType::kTransientLink;
  NodeId a = kInvalidNode;  ///< Link endpoint, or the dying node.
  NodeId b = kInvalidNode;  ///< Other link endpoint; kInvalidNode for death.
};

struct FaultScheduleOptions {
  /// Rounds the schedule covers; persistent events land in [1, rounds - 1].
  int rounds = 6;
  /// Expected fraction of links that are flaky in any given round.
  double transient_link_fraction = 0.08;
  /// Per-attempt drop probability on a flaky link.
  double transient_drop_probability = 0.6;
  int persistent_link_failures = 2;
  int node_deaths = 1;
  /// How many of the accepted persistent link failures later heal
  /// (kLinkHeal), and how many of the accepted node deaths later recover
  /// (kNodeRecover). Defaults keep the legacy fail-only schedules.
  int link_heals = 0;
  int node_recoveries = 0;
  /// Rounds between a persistent fault and its scheduled recovery (>= 1; a
  /// recovery that would land past the schedule is dropped).
  int recovery_delay_rounds = 2;
  uint64_t seed = 1;
};

/// A reproducible schedule of link and node faults — and, optionally, their
/// recoveries — deterministic in (topology, protected set, options).
/// Persistent faults are generated so the surviving subgraph stays
/// connected after every event — the network always *can* recover by
/// re-planning — and nodes in `protected_nodes` (typically the
/// destinations) never die. Persistent state is interval-based: for each
/// node/link the latest scheduled event at or before the queried round
/// wins, so a death followed by a recovery leaves the node alive again.
/// Recoveries only ever add capacity, so they cannot violate the
/// connectivity invariant.
///
/// Per-attempt delivery decisions are a pure hash of (seed, round, link,
/// direction, attempt), so replaying the same schedule yields byte-identical
/// behavior without any shared mutable RNG state.
///
/// Query cost: `Generate` keeps the persistent (non-transient) events in a
/// sorted list of their own, and flags every node a persistent event names
/// (the dying or recovering node, both endpoints of a failed or healed
/// link). A liveness or delivery query whose nodes are all unflagged skips
/// the scan: no persistent event can name them, not even a link event,
/// which names both endpoints. Other queries, and ids outside the topology,
/// scan the persistent list only, never the transient events; flaky links
/// are a per-round hash-set probe.
class FaultSchedule {
 public:
  static FaultSchedule Generate(const Topology& topology,
                                const std::vector<NodeId>& protected_nodes,
                                const FaultScheduleOptions& options);

  const FaultScheduleOptions& options() const { return options_; }
  /// All events, ordered by (round, type, ids).
  const std::vector<FaultEvent>& events() const { return events_; }
  /// Persistent events (link failures, deaths) taking effect at `round`.
  std::vector<FaultEvent> PersistentEventsAt(int round) const;

  /// True iff `n` is alive at `round`: the latest death/recovery event at
  /// or before `round` wins (alive if none).
  bool NodeAliveAt(int round, NodeId n) const;
  std::vector<NodeId> DeadNodesThrough(int round) const;
  /// Links persistently down at `round`, as (lo, hi) pairs (latest
  /// failure/heal event wins); excludes links implied by node deaths.
  std::vector<std::pair<NodeId, NodeId>> FailedLinksThrough(int round) const;

  /// Whether transmission attempt `attempt` (1-based) from `from` to `to`
  /// in `round` delivers. False for dead endpoints and persistently failed
  /// links; Bernoulli(1 - drop_probability) on links flaky this round;
  /// true otherwise. Rounds past options().rounds have no transient faults,
  /// so a post-schedule round is deterministic given the persistent state.
  bool AttemptDelivers(int round, NodeId from, NodeId to, int attempt) const;

  /// Human-readable event list (stable across runs; used in event traces).
  std::string Describe() const;

 private:
  /// True iff a persistent event may name `n`: it is flagged, or its id is
  /// outside the flag array.
  bool MayBeTouched(NodeId n) const;

  FaultScheduleOptions options_;
  std::vector<FaultEvent> events_;
  /// The events other than kTransientLink, in events_'s order.
  std::vector<FaultEvent> persistent_;
  /// Per node of the topology: 1 iff an event of persistent_ names it.
  std::vector<uint8_t> touched_;
  /// Per round, the PackLink keys of the links flaky in it; rounds past
  /// the last flaky one have no entry.
  std::vector<std::unordered_set<uint64_t>> transient_;
};

}  // namespace m2m

#endif  // M2M_SIM_FAULT_SCHEDULE_H_
