#ifndef M2M_SIM_SELF_HEALING_H_
#define M2M_SIM_SELF_HEALING_H_

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "plan/generation.h"
#include "plan/node_tables.h"
#include "plan/planner.h"
#include "routing/path_system.h"
#include "runtime/detector.h"
#include "runtime/network.h"
#include "sim/base_station.h"
#include "sim/battery.h"
#include "sim/energy_model.h"
#include "topology/topology.h"
#include "workload/workload.h"

namespace m2m {

/// Battery-aware runtime knobs (ROADMAP item 4). Off by default: every
/// default below leaves the control loop byte-identical to the legacy
/// battery-less runtime.
struct EnergyAwareOptions {
  /// Master switch. When on, the deployment runs on finite batteries: the
  /// physical link model is additionally gated on battery state (a
  /// depleted node neither transmits nor receives — energy exhaustion
  /// kills through the same in-band detection/suspicion/replan machinery
  /// as a crash), the base station predicts residuals from its own
  /// installed plans, replans route around depleted relays via
  /// residual-energy link costs, and rotation replans fire before
  /// bottleneck relays die.
  bool battery_aware = false;
  /// Initial charges / idle drain of the physical batteries. The base
  /// station node is always treated as wall-powered (immortal).
  BatteryOptions battery;
  /// Energy model batteries drain under (data-plane radio energy on actual
  /// encoded packet sizes).
  EnergyModel model;
  /// Proactive relay rotation: when the minimum *predicted* residual
  /// fraction over plan-loaded mortal nodes crosses `rotation_threshold`,
  /// the base opens a rotation replan (residual costs shift load off the
  /// bottleneck) without waiting for the node to die. After each rotation
  /// the trigger re-arms a fixed hysteresis (0.10) lower — batteries only
  /// drain, so a monotonically descending trigger cannot flap — and never
  /// refires within `rotation_cooldown_rounds` of the last rotation.
  bool proactive_rotation = true;
  double rotation_threshold = 0.35;
  int rotation_cooldown_rounds = 4;
};

/// Knobs for the self-healing control loop.
struct SelfHealingOptions {
  DetectorOptions detector;
  /// Data-plane ack/retry policy (RunRoundLossy).
  RetryPolicy retry;
  /// Partition tolerance for mobile deployments. When on, the ledger
  /// classifies unreachable regions by component analysis (alive island vs
  /// dead node, see SuspicionLedger), the per-round result carries a
  /// partition-status overlay for every original destination (partitioned
  /// destinations report *degraded with a partition cause*, never a stale
  /// "complete"), and nodes returning from a believed partition are forced
  /// a full CRC-framed image on merge (both sides may have bumped epochs
  /// independently while split). Off (default) reproduces the legacy
  /// fail-stop behavior byte for byte.
  bool partition_aware = false;
  /// Battery-aware runtime (finite energy, exhaustion faults, residual-
  /// aware replans, proactive rotation). Off (default) reproduces the
  /// legacy infinite-energy behavior byte for byte.
  EnergyAwareOptions energy;
};

/// The base station's verdict on one *original-workload* destination under
/// partition awareness: what the configured query expects vs what the
/// current beliefs say is deliverable. This is the "never stale complete"
/// surface — a destination cut off from some sources is reported degraded
/// with its cause, even in rounds where the shrunken believed plan
/// completed perfectly.
struct DestinationPartitionStatus {
  /// False iff the destination itself is believed dead or partitioned away
  /// from the base station's region.
  bool destination_reachable = true;
  /// Sources the original workload configures for this destination.
  int expected_original = 0;
  /// Of those, sources believed reachable (not dead, not partitioned).
  int believed_covered = 0;
  /// believed_covered / max(expected_original, 1).
  double original_coverage = 1.0;
  /// Original sources currently believed alive but partitioned away.
  std::vector<NodeId> partitioned_sources;
  /// Original sources currently believed dead.
  std::vector<NodeId> dead_sources;
  /// True iff any original source (or the destination) is cut off.
  bool degraded = false;
  /// True iff the degradation involves a believed partition (as opposed to
  /// believed deaths only).
  bool degraded_by_partition = false;
};

/// Outcome of one self-healed round.
struct SelfHealingRoundResult {
  /// The data round itself (values, epochs, retry stats, heard evidence).
  RuntimeNetwork::LossyResult data;
  /// Failure-detector traffic this round.
  int64_t probe_transmissions = 0;
  int64_t probe_confirmations = 0;
  /// Suspicions newly raised by monitors this round.
  int new_suspicions = 0;
  /// Suspected links readmitted this round (probation completed).
  int readmissions = 0;
  /// Control-plane traffic this round (reports, images, bumps, acks).
  int64_t control_hop_attempts = 0;
  int64_t control_hops_crossed = 0;
  /// Payload bytes of control messages that reached their target.
  int64_t control_payload_bytes = 0;
  int64_t control_messages_delivered = 0;
  /// True iff the base station opened a new plan epoch this round.
  bool replanned = false;
  /// The base station's current plan epoch after this round.
  uint32_t base_epoch = 0;
  /// Dissemination targets whose install the base has not yet seen acked.
  int pending_installs = 0;
  /// Partition-status overlay, keyed by original-workload destination.
  /// Populated only when `partition_aware` is on.
  std::map<NodeId, DestinationPartitionStatus> partition_status;
  /// Nodes the base station currently believes partitioned (sorted).
  std::vector<NodeId> believed_partitioned;

  // --- Battery accounting (populated only when battery_aware) ---
  /// Physically depleted nodes after this round's drain (sorted). Ground
  /// truth — tests compare it against the base station's beliefs below.
  std::vector<NodeId> battery_depleted;
  /// Believed-dead nodes the base station classifies as energy-exhausted
  /// from its in-band residual predictions (sorted).
  std::vector<NodeId> believed_energy_dead;
  /// True iff this round's replan was opened (at least in part) by the
  /// proactive rotation trigger rather than a belief/workload change.
  bool energy_rotation = false;
};

/// The tentpole self-healing loop: aggregation rounds run over lossy links
/// while the network detects persistent failures *in-band* and repairs its
/// own plan — no component ever reads the fault schedule's event list; the
/// only physical inputs are per-attempt delivery outcomes and each node's
/// own aliveness (LossyLinkModel), exactly what a deployed network observes.
///
/// Per round:
///   1. Data round over the installed (possibly mixed-epoch) plan images,
///      with ack/retry and the receiver-side epoch gate.
///   2. Failure detection: piggybacked heartbeats from the round's traffic
///      plus explicit probes for silent neighbors (runtime/detector.h);
///      monitors whose missed count crosses the threshold raise suspicions,
///      and keep probing suspected links so a recovered neighbor can earn
///      readmission through the detector's probation hysteresis.
///   3. Control plane: suspicion reports route hop-by-hop to the base
///      station, which folds them into its SuspicionLedger; plan images,
///      epoch bumps and install acks route the other way. Every message is
///      resumable across rounds and re-emitted if unacked.
///   4. Re-planning: on any ledger change the base station re-plans against
///      its believed topology through the query lifecycle's commit core
///      (PlanGeneration), opens a new plan epoch, and disseminates only the
///      diff: full images to content-changed nodes, 5-byte epoch bumps to
///      unchanged participants. Readmitted nodes always get a full image —
///      whatever stale-epoch tables they rebooted with, the install
///      reconciles their lineage with the base station's (higher epoch
///      wins).
///
/// Safe transitions fall out of the epoch protocol: a node installing an
/// image drops its old-epoch round state, and the runtime's epoch gate
/// keeps mixed rounds from merging records across plan generations, so
/// every converged value is attributable to exactly one epoch.
class SelfHealingRuntime {
 public:
  /// `base_station` must be a protected (never-dying) node.
  SelfHealingRuntime(const Topology& topology, const Workload& workload,
                     NodeId base_station,
                     const SelfHealingOptions& options = {});

  /// Runs one round. `physical.attempt_delivers` must be the physical link
  /// oracle for this round (false for dead endpoints and failed links —
  /// e.g. FaultSchedule::AttemptDelivers bound to `round`);
  /// `physical.node_alive` reports physical aliveness (a dead node runs
  /// nothing). Probes and control hops draw their attempt indices from
  /// namespaces above the data plane's (sim/attempt_namespaces.h), so the
  /// oracle must accept arbitrary attempt indices.
  SelfHealingRoundResult RunRound(int round,
                                  const std::vector<double>& readings,
                                  const LossyLinkModel& physical,
                                  EventTrace* trace = nullptr);

  /// Replaces the configured workload (query-lifecycle churn: queries
  /// admitted, retired, or modified at the base station). Takes effect at
  /// the next RunRound through the same replan / epoch / dissemination
  /// machinery as failure repair — the believed workload becomes this
  /// workload minus believed-dead sources — so churn composes with
  /// failures, loss, and rejoin.
  void SubmitWorkload(const Workload& workload);

  /// Attaches a metrics registry to the control loop and the underlying
  /// RuntimeNetwork: rounds then record detector traffic (probes,
  /// confirmations, suspicion raises), control-plane hop attempts and
  /// crossings, dissemination (images/bumps queued, install bytes), and
  /// replan activity (replans, epoch gauge, patch-locality edge counts)
  /// alongside the runtime.* data-plane counters. Pass nullptr to detach.
  void set_metrics(obs::MetricsRegistry* metrics);
  obs::MetricsRegistry* metrics() const { return metrics_; }

  uint32_t base_epoch() const { return epoch_; }
  const GlobalPlan& plan() const { return compiled().plan(); }
  const CompiledPlan& compiled() const { return generation_.compiled(); }
  /// Current-epoch wire images per node.
  const std::vector<std::vector<uint8_t>>& images() const {
    return generation_.images();
  }
  /// The believed workload: the original workload minus the sources of
  /// currently-believed-dead nodes. Recomputed from the original on every
  /// belief change, so a readmitted node's sources come back.
  const Workload& current_workload() const { return workload_; }
  const SuspicionLedger& ledger() const { return ledger_; }
  const FailureDetector& detector() const { return detector_; }
  const RuntimeNetwork& network() const { return network_; }
  /// Physical battery state (battery-aware mode; empty ledger otherwise).
  const BatteryLedger& battery() const { return battery_; }
  /// The base station's in-band residual prediction: an identically
  /// configured ledger charged with the analytic drain of each installed
  /// plan instead of executed packets. This — never `battery()` — is what
  /// classification, rotation, and residual-aware replans read.
  const BatteryLedger& predicted_battery() const { return predicted_; }
  /// Mutable network access for split-brain experiments: tests drive two
  /// runtimes over the two sides of a partition and cross-install the far
  /// side's images to model the island's independent epoch progress.
  RuntimeNetwork& mutable_network() { return network_; }
  /// Highest foreign plan epoch observed during installs (a node reporting
  /// a newer epoch than this base station ever opened — evidence the other
  /// side of a healed partition replanned independently). 0 if none.
  uint32_t foreign_epoch_max() const { return foreign_epoch_max_; }
  /// Dissemination targets not yet known-installed for the current epoch.
  int pending_installs() const;
  /// Round at which each epoch was opened (epoch -> round); epoch 0 maps
  /// to -1. Detection-latency measurements read this.
  const std::map<uint32_t, int>& epoch_opened_round() const {
    return epoch_opened_round_;
  }

 private:
  struct ControlMessage {
    using Kind = obs::ControlKind;
    Kind kind;
    NodeId origin = kInvalidNode;
    NodeId target = kInvalidNode;
    NodeId holder = kInvalidNode;
    std::vector<uint8_t> payload;
    uint32_t epoch = 0;  ///< Plan epoch for kImage/kBump/kInstallAck.
    int seq = 0;         ///< Decorrelates per-hop attempt indices.
    int last_advanced_round = -1;
  };

  void QueueControl(ControlMessage::Kind kind, NodeId origin, NodeId target,
                    std::vector<uint8_t> payload, uint32_t epoch);
  void AdvanceControlPlane(int round, const LossyLinkModel& physical,
                           SelfHealingRoundResult& result,
                           EventTrace* trace);
  void DeliverControl(const ControlMessage& message, int round);
  void MaybeReplan(int round, SelfHealingRoundResult& result,
                   EventTrace* trace);
  /// Re-derives control_paths_ when a detector or ledger revision moved
  /// and the links they avoid changed with it.
  void RefreshControlPaths();
  /// Rebuilds the believed workload from the original under the current
  /// beliefs: strips unreachable (believed-dead, or in partition-aware mode
  /// believed-partitioned) sources, and drops tasks whose destination is
  /// unreachable or that are left without any reachable source.
  void RebuildBelievedWorkload();
  /// Fills `result`'s partition-status overlay and partition.* metrics.
  void ComputePartitionStatus(SelfHealingRoundResult& result);
  /// Records an install bouncing off a node holding a higher epoch (the
  /// far side of a healed split replanned on its own): remembers the
  /// foreign epoch and schedules a reconciliation replan.
  void RecordEpochDivergence(NodeId node);
  /// Battery mode: drains the physical ledger with the round's executed
  /// per-node energy and the predicted ledger with the installed plan's
  /// analytic drain; traces/counts newly depleted nodes.
  void ChargeBatteries(int round, const SelfHealingRoundResult& result,
                       EventTrace* trace);
  /// Battery mode: classifies believed deaths as energy exhaustion from
  /// predicted residuals and arms the proactive-rotation trigger.
  void UpdateEnergyBeliefs(int round, SelfHealingRoundResult& result,
                           EventTrace* trace);
  /// Predicted residual fractions per node (1.0 for immortal nodes).
  std::vector<double> PredictedResidualFractions() const;

  /// Pre-resolved metric handles (see RuntimeNetwork::MetricHandles).
  struct MetricHandles {
    obs::MetricHandle probe_tx;
    obs::MetricHandle probe_confirms;
    obs::MetricHandle suspicions;
    obs::MetricHandle control_hop_attempts;
    obs::MetricHandle control_hops;
    obs::MetricHandle control_delivered;
    obs::MetricHandle control_bytes;
    obs::MetricHandle replans;
    obs::MetricHandle epoch_gauge;
    obs::MetricHandle images_queued;
    obs::MetricHandle bumps_queued;
    obs::MetricHandle edges_reused;
    obs::MetricHandle edges_reoptimized;
    obs::MetricHandle pending_installs;
    obs::MetricHandle readmissions;
    obs::MetricHandle probation_rounds;
    obs::MetricHandle epoch_reconciliations;
    obs::MetricHandle believed_partitioned;
    obs::MetricHandle partition_events;
    obs::MetricHandle merge_events;
    obs::MetricHandle merge_reconciliations;
    obs::MetricHandle epoch_divergences;
    obs::MetricHandle degraded_destination_rounds;
    obs::MetricHandle energy_rounds;
    obs::MetricHandle energy_drain;
    obs::MetricHandle energy_depleted;
    obs::MetricHandle energy_dead;
    obs::MetricHandle energy_rotations;
    obs::MetricHandle energy_min_residual;
    obs::MetricHandle energy_exhaustions;
  };

  const Topology* topology_;
  NodeId base_;
  SelfHealingOptions options_;
  /// The deployment's full workload, as configured. Never mutated.
  Workload original_workload_;
  /// The believed workload: original minus believed-dead sources.
  Workload workload_;
  uint32_t epoch_ = 0;
  /// Paths control messages route over: the deployment topology minus
  /// `control_links_` (suspicions propagate through the control plane
  /// itself; routing around them immediately is what lets a report escape
  /// a region whose primary path just failed). Declared before
  /// generation_: the initial forest is built over it, so construction
  /// builds one graph of the topology, not two.
  PathSystem control_paths_;
  /// The believed plan, its functions and its images.
  PlanGeneration generation_;
  RuntimeNetwork network_;
  FailureDetector detector_;
  SuspicionLedger ledger_;
  int ledger_revision_applied_ = 0;
  /// Bumped by SubmitWorkload; a lagging applied counter triggers a replan
  /// exactly like a ledger revision change.
  int workload_revision_ = 0;
  int workload_revision_applied_ = 0;

  /// Every link any monitor suspects or the ledger believes failed,
  /// sorted (lo, hi), as of the detector and ledger revisions below.
  std::vector<std::pair<NodeId, NodeId>> control_links_;
  int control_detector_revision_ = 0;
  int control_ledger_revision_ = 0;
  /// Fallback routes over the full deployment graph, for messages whose
  /// believed route does not exist: a monitor sitting behind a healed cut
  /// is the only messenger that can correct the belief, and the believed
  /// topology routes around the very link its retraction would clear.
  /// Hops stay attempt-gated by the physical layer, so the fallback can
  /// only unstick wrongly-routed messages — a genuinely dead link still
  /// stalls them exactly as before.
  PathSystem deployment_paths_;

  std::vector<ControlMessage> in_flight_;
  int next_seq_ = 0;

  /// Monitor-side: suspicions raised but not yet acked by the base
  /// station, with the round their report was last emitted.
  struct MonitorOutbox {
    std::set<std::pair<NodeId, int>> pending;  // (neighbor, round raised).
    /// Readmissions not yet acked: (neighbor, round probation completed).
    std::set<std::pair<NodeId, int>> retractions;
    int last_sent_round = -1;
  };
  std::map<NodeId, MonitorOutbox> monitor_outbox_;

  /// Base-side: per dissemination target of the current epoch.
  struct PendingInstall {
    bool is_bump = false;
    int last_sent_round = -1;
    bool acked = false;
  };
  std::map<NodeId, PendingInstall> pending_installs_;

  std::map<uint32_t, int> epoch_opened_round_;

  /// believed_partitioned() as of the last round, for partition/merge event
  /// metrics (tracked per round, not per replan).
  std::vector<NodeId> believed_partitioned_last_;
  /// Highest plan epoch seen from a node this base station did not issue —
  /// the healed far side of a split that replanned independently. A replan
  /// triggered while this exceeds `epoch_` opens max(ours, theirs) + 1, so
  /// the reconciling epoch supersedes both lineages.
  uint32_t foreign_epoch_max_ = 0;
  /// Set when an install bounced off a higher-epoch node (InstallNodeImage
  /// returned false); forces a reconciliation replan next round.
  bool epoch_divergence_pending_ = false;
  /// Per node: the ledger's belief at the last replan. A node believed
  /// alive again after a belief of partitioned (a merge) or dead (a
  /// readmission) is forced a full image by the next replan.
  std::vector<SuspicionLedger::NodeBelief> replan_beliefs_;
  /// Per node: 1 iff an install bounced since the last replan; the next
  /// replan forces the node a full image under the reconciling epoch.
  std::vector<uint8_t> install_bounced_;

  // --- Battery-aware state (battery_aware mode only) ---
  /// Physical batteries, drained by executed data rounds. Gates the link
  /// model; never read by the base station's decisions.
  BatteryLedger battery_;
  /// Per node: depleted as of the current round's start, the down mask of
  /// the layer that gates the caller's link model.
  std::vector<bool> depleted_;
  /// The base station's in-band twin: same initial charges, drained by the
  /// analytic per-round energy of whatever plan the base has installed.
  BatteryLedger predicted_;
  /// Analytic per-node drain (mJ/round) of the current believed plan;
  /// recomputed on every replan (CompiledRoundEnergyMj).
  std::vector<double> predicted_drain_mj_;
  /// Rotation trigger state: fires when the minimum predicted residual
  /// fraction of a plan-loaded mortal node crosses the descending trigger
  /// level (threshold, then hysteresis lower after each rotation).
  double rotation_trigger_level_ = 0.0;
  /// Finite sentinel (not INT_MIN: `round - last_rotation_round_` must not
  /// overflow) far enough back that the first trigger is never cooled down.
  int last_rotation_round_ = -1000000;
  bool energy_rotation_pending_ = false;

  obs::MetricsRegistry* metrics_ = nullptr;
  MetricHandles handles_;
};

}  // namespace m2m

#endif  // M2M_SIM_SELF_HEALING_H_
