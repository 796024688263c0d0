#ifndef M2M_RUNTIME_DETECTOR_H_
#define M2M_RUNTIME_DETECTOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "topology/topology.h"

namespace m2m {

/// Tuning knobs for the in-network failure detector.
struct DetectorOptions {
  /// Consecutive silent rounds (no heartbeat evidence and every probe
  /// exchange failed) before a monitor suspects the link to a neighbor.
  /// Higher values trade detection latency for fewer false suspicions under
  /// heavy transient loss.
  int suspicion_threshold = 2;
  /// Consecutive rounds of renewed evidence a suspected link must show
  /// before the suspicion is retracted (the link is *readmitted*). The
  /// hysteresis gap — raise after `suspicion_threshold` misses, retract
  /// only after `probation_rounds` consecutive proofs of life — keeps a
  /// flapping link from oscillating the plan.
  int probation_rounds = 2;
  /// Flap damping for mobile links: each re-suspicion that follows a
  /// recent readmission of the same link multiplies its next probation by
  /// this factor, so a link that keeps making and breaking (a node
  /// drifting along the range boundary) settles into a long quarantine
  /// instead of storming the planner with suspect/readmit cycles. 1 (the
  /// default) disables escalation and reproduces the legacy behavior
  /// byte for byte.
  int probation_backoff_factor = 1;
  /// Hard cap on any link's effective probation. The cap is what makes
  /// damping safe: suspicion may escalate but can never become sticky —
  /// once a flapping link genuinely stabilizes, it is readmitted within
  /// `max_probation_rounds` consecutive evidence rounds, never exiled
  /// permanently (pinned by the oscillating-link regression).
  int max_probation_rounds = 64;
  /// A link whose last readmission lies more than this many rounds in the
  /// past is forgiven: its next suspicion starts from the base probation
  /// again rather than the escalated one.
  int flap_forgiveness_rounds = 64;
};

/// One monitor's verdict about the directed link to a topology neighbor.
struct SuspectedLink {
  NodeId monitor = kInvalidNode;
  NodeId neighbor = kInvalidNode;
  /// Round at which the monitor's missed count crossed the threshold (for
  /// readmissions: the round probation completed).
  int round = -1;

  friend bool operator==(const SuspectedLink&, const SuspectedLink&) =
      default;
  friend auto operator<=>(const SuspectedLink&, const SuspectedLink&) =
      default;
};

/// Paper section 3's failure *detection* half, run in-network: every node
/// monitors its topology neighbors using two evidence sources and no oracle:
///
///   1. Piggybacked heartbeats — any transmission heard from a neighbor
///      during normal round traffic (data hop, ack hop) proves it alive.
///      This is free: it reuses the packets the aggregation already sends.
///   2. Explicit probes — when a neighbor was silent all round (it may
///      simply have no traffic routed this way), the monitor sends up to
///      `kProbeAttempts` probe packets; a live neighbor answers with a
///      probe reply (again up to `kProbeAttempts` attempts). Only when the
///      whole exchange fails does the round count as missed.
///
/// A neighbor missed `suspicion_threshold` consecutive rounds becomes a
/// suspicion. Suspicions are not sticky: monitors keep probing suspected
/// links, and a recovered neighbor works its way back through a *probation*
/// hysteresis — evidence of life moves the link into probation, and after
/// `probation_rounds` consecutive evidence rounds the suspicion is
/// retracted (a *readmission*, reported so the planner can re-admit the
/// node). A single silent round during probation falls back to full
/// suspicion, so flapping links stay quarantined. The link state machine:
///
///   trusted --threshold misses--> suspected --evidence--> probation
///     ^                              ^  |                    |
///     |                              |  +--- (stays) <-- silent round
///     +--- probation_rounds consecutive evidence rounds -----+
///
/// The class simulates the per-node monitors centrally but gives each
/// monitor only locally observable inputs: which neighbors it heard, and
/// the outcome of its own probe transmissions. It never reads the fault
/// schedule's event list.
///
/// Cost: a round costs one pass over `heard`, which marks the evidence of
/// each directed topology link in its slot, one pass over the slots, and
/// the probes of the silent links. Missed-round counters, evidence marks
/// and suspicion flags live in flat vectors with a slot per directed link;
/// suspicions and flap records stay in maps because only a few links hold
/// one, and a slot searches them only when its suspicion flag is set.
class FailureDetector {
 public:
  FailureDetector(const Topology& topology, DetectorOptions options = {});

  /// Physical outcome of one probe-sized transmission attempt on a directed
  /// link (1-based attempt index). Must already account for dead endpoints:
  /// a transmission from or to a dead node never delivers. Must be pure for
  /// reproducibility. Attempt indices are drawn from a dedicated namespace
  /// (1000+ for probes, 1500+ for replies) so probe outcomes are
  /// independent of the round's data-traffic outcomes.
  using AttemptDelivers =
      std::function<bool(NodeId from, NodeId to, int attempt)>;

  struct RoundReport {
    /// Suspicions newly raised this round, ordered by (monitor, neighbor).
    /// A link re-suspected after a readmission appears again.
    std::vector<SuspectedLink> new_suspicions;
    /// Suspicions retracted this round — the neighbor completed probation.
    /// `round` is the round probation completed.
    std::vector<SuspectedLink> readmitted;
    /// Probe packets transmitted (attempts, both probes and replies) — the
    /// detector's traffic overhead for this round.
    int64_t probe_transmissions = 0;
    /// Probe exchanges that produced evidence of life.
    int64_t probe_confirmations = 0;
  };

  /// Feeds one round of observations to every live monitor. `heard` is the
  /// round's heartbeat evidence: directed pairs (from, to) where `to` heard
  /// at least one transmission by `from`, sorted and duplicate-free
  /// (RuntimeNetwork::LossyResult::heard; CHECKed). `node_active` says
  /// whether a node ran this round at all (a physically dead node executes
  /// nothing, so it neither monitors nor probes); it models the node's own
  /// state, not knowledge of others.
  RoundReport ObserveRound(
      int round, const std::vector<std::pair<NodeId, NodeId>>& heard,
      const AttemptDelivers& attempt_delivers,
      const std::function<bool(NodeId)>& node_active);

  /// Current suspicions (suspected or in probation), ordered by
  /// (monitor, neighbor).
  std::vector<SuspectedLink> suspicions() const;

  /// Moves whenever `suspicions()` gains or loses a link (a raise or a
  /// readmission), and only then: probation progress and missed-round
  /// counts leave it alone. Equal revisions mean equal suspected links.
  int revision() const { return revision_; }

  /// True iff `monitor` currently suspects its link to `neighbor` —
  /// including links in probation, which stay quarantined until readmitted.
  bool Suspects(NodeId monitor, NodeId neighbor) const;

  /// True iff the suspected link is in probation (accumulating evidence
  /// toward readmission).
  bool InProbation(NodeId monitor, NodeId neighbor) const;

  /// Number of suspected links currently in probation.
  int probation_link_count() const;

  /// Consecutive missed rounds for a directed monitor->neighbor pair; 0 if
  /// the two are not topology neighbors.
  int missed_rounds(NodeId monitor, NodeId neighbor) const;

  /// Effective probation the current suspicion of this link must serve
  /// (base probation escalated by flap damping); 0 if not suspected.
  int required_probation(NodeId monitor, NodeId neighbor) const;

  /// Re-suspicions of this link within the forgiveness window (its flap
  /// score); 0 for a link with no recent flap history.
  int flap_count(NodeId monitor, NodeId neighbor) const;

  const DetectorOptions& options() const { return options_; }

  /// First attempt index of the probe / probe-reply attempt namespaces.
  /// Data traffic uses small positive attempt indices; keeping probes in a
  /// disjoint range makes their outcomes independent draws from the same
  /// pure link function.
  static constexpr int kProbeAttemptBase = 1000;
  static constexpr int kProbeReplyAttemptBase = 1500;
  /// Transmission attempts per probe and per probe reply each round. With
  /// per-attempt drop probability p, a live neighbor stays silent for a
  /// whole round only with probability ~2 p^kProbeAttempts.
  static constexpr int kProbeAttempts = 8;
  static_assert(kProbeAttempts >= 1 &&
                    kProbeAttemptBase + kProbeAttempts < kProbeReplyAttemptBase,
                "probe attempts must fit their attempt namespace");

 private:
  struct Suspicion {
    int raised_round = -1;
    /// Consecutive evidence rounds while suspected; readmit at
    /// `required_probation`. 0 = not in probation.
    int probation_progress = 0;
    /// Evidence rounds this suspicion must serve before readmission:
    /// `probation_rounds` escalated by the link's flap score, capped at
    /// `max_probation_rounds`.
    int required_probation = 0;
  };

  /// Flap-damping memory for one directed link.
  struct FlapRecord {
    int resuspicions = 0;       ///< Suspicions since the streak started.
    int last_readmit_round = -1;
  };

  /// Effective probation for a suspicion of `link` raised at `round`,
  /// updating (or forgiving) the link's flap record.
  int EscalatedProbation(const std::pair<NodeId, NodeId>& link, int round);

  /// Immutable (topology.h) and must outlive the detector. A link's slot
  /// is its index in the topology's flat neighbor array: monitor m's links
  /// start at topology_->row_begin(m), in the order of neighbors(m).
  const Topology* topology_;
  DetectorOptions options_;
  /// Per link slot: consecutive rounds without evidence of life.
  std::vector<int> missed_;
  /// Per link slot: `observation_` of the last round whose `heard` named
  /// the link; 0 = none since the counter last wrapped.
  std::vector<uint8_t> heard_mark_;
  /// Per link slot: 1 iff `suspected_` holds the link.
  std::vector<uint8_t> slot_suspected_;
  /// Rounds observed, cycling through 1..255: the identity of a round's
  /// evidence marks, independent of the caller's round numbers.
  uint8_t observation_ = 0;
  /// Active suspicions keyed (monitor, neighbor).
  std::map<std::pair<NodeId, NodeId>, Suspicion> suspected_;
  int revision_ = 0;
  /// Flap history keyed (monitor, neighbor); entries are dropped when the
  /// forgiveness window elapses.
  std::map<std::pair<NodeId, NodeId>, FlapRecord> flaps_;
};

}  // namespace m2m

#endif  // M2M_RUNTIME_DETECTOR_H_
