#include "sim/self_healing.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <string>

#include "common/check.h"
#include "common/crc32.h"
#include "plan/dissemination.h"
#include "plan/serialization.h"
#include "routing/lifetime_forest.h"
#include "runtime/wire_functions.h"

namespace m2m {

namespace {

constexpr int64_t kUnreachableWeight = std::numeric_limits<int64_t>::max();

/// Rounds a sender waits for an end-to-end acknowledgment before
/// re-emitting a control message (covers holders dying mid-route).
constexpr int kResendAfterRounds = 3;
static_assert(kResendAfterRounds >= 1);

/// Transmission attempts per control-message hop per round. A control
/// message (suspicion report, plan image, epoch bump, install ack) advances
/// as many hops as deliver within a round and stalls at the first hop that
/// exhausts its attempts, resuming next round. Each message owns 16 attempt
/// indices per hop (AdvanceControlPlane), so the attempts must fit them.
constexpr int kControlHopAttempts = 8;
static_assert(kControlHopAttempts >= 1 && kControlHopAttempts <= 16);

/// Penalty for ResidualEnergyLinkCost on battery-aware replans: how hard
/// routes avoid depleted relays. With full batteries everywhere the cost is
/// exactly 1.0 — identical paths to the legacy hop-count metric.
constexpr double kResidualCostPenalty = 8.0;

/// How far below both its previous level and the current predicted minimum
/// the rotation trigger re-arms after each proactive rotation.
constexpr double kRotationHysteresis = 0.10;

/// A believed-dead node whose *predicted* residual fraction is at or below
/// this is classified energy-dead (vs crash/partition). In-band: the verdict
/// uses only the base station's own drain predictions, never the physical
/// ledger.
constexpr double kExhaustionClassifyFraction = 0.10;

using NodeBelief = SuspicionLedger::NodeBelief;

template <typename T>
bool Contains(const std::vector<T>& values, const T& value) {
  return std::find(values.begin(), values.end(), value) != values.end();
}

}  // namespace

SelfHealingRuntime::SelfHealingRuntime(const Topology& topology,
                                       const Workload& workload,
                                       NodeId base_station,
                                       const SelfHealingOptions& options)
    : topology_(&topology),
      base_(base_station),
      options_(options),
      original_workload_(workload),
      workload_(workload),
      control_paths_(topology),
      generation_(control_paths_, workload.tasks, workload.functions,
                  /*plan_epoch=*/0),
      network_(generation_.compiled(), generation_.images()),
      detector_(topology, options.detector),
      ledger_(&topology, base_station),
      deployment_paths_(control_paths_),
      replan_beliefs_(static_cast<size_t>(topology.node_count()),
                      NodeBelief::kAlive),
      install_bounced_(static_cast<size_t>(topology.node_count()), 0) {
  M2M_CHECK(base_ >= 0 && base_ < topology.node_count());
  ledger_.set_partition_aware(options_.partition_aware);
  epoch_opened_round_[0] = -1;
  if (options_.energy.battery_aware) {
    // The base station is wall-powered: a base whose battery could die
    // would take the whole control loop with it, which is a deployment
    // error, not a fault to heal.
    BatteryOptions battery_options = options_.energy.battery;
    if (!Contains(battery_options.immortal_nodes, base_)) {
      battery_options.immortal_nodes.push_back(base_);
    }
    battery_ = BatteryLedger(topology.node_count(), battery_options);
    predicted_ = BatteryLedger(topology.node_count(), battery_options);
    network_.set_track_node_energy(true);
    predicted_drain_mj_ =
        CompiledRoundEnergyMj(compiled(), options_.energy.model);
    rotation_trigger_level_ = options_.energy.rotation_threshold;
  }
}

void SelfHealingRuntime::SubmitWorkload(const Workload& workload) {
  original_workload_ = workload;
  ++workload_revision_;
}

void SelfHealingRuntime::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  network_.set_metrics(metrics);
  if (metrics_ == nullptr) return;
  handles_.probe_tx = metrics_->Counter("heal.probe_transmissions");
  handles_.probe_confirms = metrics_->Counter("heal.probe_confirmations");
  handles_.suspicions = metrics_->Counter("heal.suspicions_raised");
  handles_.control_hop_attempts =
      metrics_->Counter("heal.control_hop_attempts");
  handles_.control_hops = metrics_->Counter("heal.control_hops");
  handles_.control_delivered =
      metrics_->Counter("heal.control_messages_delivered");
  handles_.control_bytes = metrics_->Counter("heal.control_payload_bytes");
  handles_.replans = metrics_->Counter("heal.replans");
  handles_.epoch_gauge = metrics_->Gauge("heal.base_epoch");
  handles_.images_queued = metrics_->Counter("heal.images_queued");
  handles_.bumps_queued = metrics_->Counter("heal.bumps_queued");
  handles_.edges_reused = metrics_->Counter("heal.replan_edges_reused");
  handles_.edges_reoptimized =
      metrics_->Counter("heal.replan_edges_reoptimized");
  handles_.pending_installs = metrics_->Gauge("heal.pending_installs");
  handles_.readmissions = metrics_->Counter("readmit.readmissions");
  handles_.probation_rounds = metrics_->Counter("readmit.probation_rounds");
  handles_.epoch_reconciliations =
      metrics_->Counter("readmit.epoch_reconciliations");
  handles_.believed_partitioned =
      metrics_->Gauge("partition.believed_partitioned");
  handles_.partition_events = metrics_->Counter("partition.partition_events");
  handles_.merge_events = metrics_->Counter("partition.merge_events");
  handles_.merge_reconciliations =
      metrics_->Counter("partition.merge_reconciliations");
  handles_.epoch_divergences =
      metrics_->Counter("partition.epoch_divergences");
  handles_.degraded_destination_rounds =
      metrics_->Counter("partition.degraded_destination_rounds");
  // Registered only in battery mode: legacy runs keep their metrics JSON
  // byte-identical (no zero-valued energy.* entries appear).
  if (options_.energy.battery_aware) {
    handles_.energy_rounds = metrics_->Gauge("energy.rounds_charged");
    handles_.energy_drain = metrics_->Gauge("energy.total_drain_uj");
    handles_.energy_depleted = metrics_->Gauge("energy.depleted_nodes");
    handles_.energy_dead = metrics_->Gauge("energy.believed_energy_dead");
    handles_.energy_rotations = metrics_->Counter("energy.rotations");
    handles_.energy_min_residual =
        metrics_->Gauge("energy.min_residual_permille");
    handles_.energy_exhaustions =
        metrics_->Counter("energy.exhaustion_deaths");
  }
}

int SelfHealingRuntime::pending_installs() const {
  int pending = 0;
  for (const auto& [node, install] : pending_installs_) {
    if (!install.acked) ++pending;
  }
  return pending;
}

SelfHealingRoundResult SelfHealingRuntime::RunRound(
    int round, const std::vector<double>& readings,
    const LossyLinkModel& physical, EventTrace* trace) {
  M2M_CHECK(physical.attempt_delivers != nullptr);
  SelfHealingRoundResult result;

  // Battery mode: gate the physical layer on battery state as of *round
  // start* (a node depleting mid-round still finishes the round it paid
  // for). A depleted node neither transmits nor receives and runs nothing,
  // so — through the unchanged detector/ledger machinery below — energy
  // exhaustion presents exactly like a crash: neighbors see silence,
  // suspect, report, and the base replans around the corpse. The snapshot
  // is value-captured: ChargeBatteries below mutates the ledger without
  // affecting this round's oracle.
  LossyLinkModel gated;
  const LossyLinkModel* model = &physical;
  if (options_.energy.battery_aware) {
    std::vector<bool> depleted(static_cast<size_t>(battery_.node_count()));
    for (NodeId n = 0; n < battery_.node_count(); ++n) {
      depleted[n] = battery_.depleted(n);
    }
    gated = physical;
    gated.attempt_delivers = [depleted,
                              inner = physical.attempt_delivers](
                                 NodeId from, NodeId to, int attempt) {
      if (depleted[from] || depleted[to]) return false;
      return inner(from, to, attempt);
    };
    if (physical.node_alive != nullptr) {
      gated.node_alive = [depleted,
                          inner = physical.node_alive](NodeId node) {
        return !depleted[node] && inner(node);
      };
    } else {
      gated.node_alive = [depleted](NodeId node) {
        return !depleted[node];
      };
    }
    model = &gated;
  }

  // 1. Data round over the installed (possibly mixed-epoch) images.
  result.data =
      network_.RunRoundLossy(readings, *model, options_.retry, {}, trace);
  if (options_.energy.battery_aware) {
    ChargeBatteries(round, result, trace);
  }

  // 2. In-band failure detection: heartbeats from the round's traffic,
  // probes for silent neighbors.
  FailureDetector::RoundReport detection = detector_.ObserveRound(
      round, result.data.heard, model->attempt_delivers,
      model->node_alive);
  result.probe_transmissions = detection.probe_transmissions;
  result.probe_confirmations = detection.probe_confirmations;
  result.new_suspicions = static_cast<int>(detection.new_suspicions.size());
  if (metrics_ != nullptr) {
    metrics_->Add(handles_.probe_tx, detection.probe_transmissions);
    metrics_->Add(handles_.probe_confirms, detection.probe_confirmations);
  }
  result.readmissions = static_cast<int>(detection.readmitted.size());
  for (const SuspectedLink& suspicion : detection.new_suspicions) {
    MonitorOutbox& outbox = monitor_outbox_[suspicion.monitor];
    outbox.pending.emplace(suspicion.neighbor, suspicion.round);
    // A re-suspicion supersedes any queued retraction of the same link, so
    // at most one verdict per neighbor is ever in a report.
    std::erase_if(outbox.retractions, [&suspicion](const auto& entry) {
      return entry.first == suspicion.neighbor;
    });
    if (metrics_ != nullptr) {
      metrics_->AddNode(handles_.suspicions, suspicion.monitor, 1);
    }
    if (trace != nullptr) {
      trace->Suspect(round, suspicion.monitor, suspicion.neighbor);
    }
  }
  for (const SuspectedLink& readmit : detection.readmitted) {
    MonitorOutbox& outbox = monitor_outbox_[readmit.monitor];
    // If the suspicion never reached the base it needs no retraction, but
    // an unacked report may still have been *delivered* (ack lost), so the
    // retraction is sent regardless; RecordReadmission of a link the base
    // never believed failed is a harmless no-op.
    std::erase_if(outbox.pending, [&readmit](const auto& entry) {
      return entry.first == readmit.neighbor;
    });
    outbox.retractions.emplace(readmit.neighbor, readmit.round);
    if (metrics_ != nullptr) {
      metrics_->AddNode(handles_.readmissions, readmit.monitor, 1);
    }
  }
  if (metrics_ != nullptr && detector_.probation_link_count() > 0) {
    // One count per link per round spent in probation.
    metrics_->Add(handles_.probation_rounds,
                  detector_.probation_link_count());
  }

  // 3. Control plane: reports toward the base station, plan images / epoch
  // bumps / install acks the other way.
  AdvanceControlPlane(round, *model, result, trace);
  // 3b. Battery mode: refresh the base station's in-band energy beliefs
  // (exhaustion classification, proactive-rotation trigger) before the
  // replan decision they may feed.
  if (options_.energy.battery_aware) {
    UpdateEnergyBeliefs(round, result, trace);
  }
  // 4. Any ledger change opens a new epoch and queues its dissemination...
  MaybeReplan(round, result, trace);
  // ...which gets its first advance within the same round (messages already
  // advanced this round are skipped, so nothing moves twice).
  AdvanceControlPlane(round, *model, result, trace);

  if (options_.partition_aware) {
    ComputePartitionStatus(result);
  }

  result.base_epoch = epoch_;
  result.pending_installs = pending_installs();
  if (metrics_ != nullptr) {
    metrics_->Add(handles_.control_hop_attempts, result.control_hop_attempts);
    metrics_->Add(handles_.control_hops, result.control_hops_crossed);
    metrics_->Add(handles_.control_delivered,
                  result.control_messages_delivered);
    metrics_->Add(handles_.control_bytes, result.control_payload_bytes);
    metrics_->Set(handles_.epoch_gauge, epoch_);
    metrics_->Set(handles_.pending_installs, result.pending_installs);
  }
  return result;
}

void SelfHealingRuntime::QueueControl(ControlMessage::Kind kind,
                                      NodeId origin, NodeId target,
                                      std::vector<uint8_t> payload,
                                      uint32_t epoch) {
  ControlMessage message;
  message.kind = kind;
  message.origin = origin;
  message.target = target;
  message.holder = origin;
  message.payload = std::move(payload);
  message.epoch = epoch;
  message.seq = next_seq_++;
  in_flight_.push_back(std::move(message));
}

void SelfHealingRuntime::RefreshControlPaths() {
  // The avoided links change only when a suspicion or a belief does.
  if (detector_.revision() == control_detector_revision_ &&
      ledger_.revision() == control_ledger_revision_) {
    return;
  }
  control_detector_revision_ = detector_.revision();
  control_ledger_revision_ = ledger_.revision();
  // Control routing avoids every link any monitor suspects (plus the base
  // station's believed-failed links, a subset once reports arrive). The
  // ledger's links and the monitor < neighbor suspicions are already
  // sorted (lo, hi) and duplicate-free; only the other half needs a sort
  // before the three lists are merged.
  std::vector<std::pair<NodeId, NodeId>> forward;
  std::vector<std::pair<NodeId, NodeId>> reverse;
  for (const SuspectedLink& s : detector_.suspicions()) {
    if (s.monitor < s.neighbor) {
      forward.emplace_back(s.monitor, s.neighbor);
    } else {
      reverse.emplace_back(s.neighbor, s.monitor);
    }
  }
  std::ranges::sort(reverse);
  const std::vector<std::pair<NodeId, NodeId>>& believed =
      ledger_.believed_failed_links();
  std::vector<std::pair<NodeId, NodeId>> suspected;
  suspected.reserve(forward.size() + reverse.size());
  std::ranges::set_union(forward, reverse, std::back_inserter(suspected));
  std::vector<std::pair<NodeId, NodeId>> links;
  links.reserve(believed.size() + suspected.size());
  std::ranges::set_union(believed, suspected, std::back_inserter(links));
  // Compare the links, not their count: a readmission paired with a fresh
  // suspicion keeps the count constant while the routes must change.
  if (links == control_links_) return;
  control_links_ = std::move(links);
  control_paths_ =
      PathSystem(Topology::WithFailures(*topology_, control_links_, {}));
}

void SelfHealingRuntime::AdvanceControlPlane(int round,
                                             const LossyLinkModel& physical,
                                             SelfHealingRoundResult& result,
                                             EventTrace* trace) {
  RefreshControlPaths();

  // (a) Emit / re-emit suspicion reports. The base station's own
  // suspicions go straight into the ledger (it is the base).
  for (auto& [monitor, outbox] : monitor_outbox_) {
    if (outbox.pending.empty() && outbox.retractions.empty()) continue;
    if (monitor == base_) {
      for (const auto& [neighbor, raised] : outbox.pending) {
        ledger_.RecordSuspicion(monitor, neighbor);
      }
      for (const auto& [neighbor, readmit_round] : outbox.retractions) {
        ledger_.RecordReadmission(monitor, neighbor);
      }
      outbox.pending.clear();
      outbox.retractions.clear();
      continue;
    }
    if (outbox.last_sent_round >= 0 &&
        round - outbox.last_sent_round < kResendAfterRounds) {
      continue;
    }
    // Drop any stale in-flight copy (its holder may have died) and re-emit
    // the monitor's full pending set.
    const NodeId origin = monitor;
    std::erase_if(in_flight_, [origin](const ControlMessage& m) {
      return m.kind == ControlMessage::Kind::kReport && m.origin == origin;
    });
    wire::SuspicionReport report;
    report.monitor = monitor;
    report.entries.assign(outbox.pending.begin(), outbox.pending.end());
    report.retractions.assign(outbox.retractions.begin(),
                              outbox.retractions.end());
    QueueControl(ControlMessage::Kind::kReport, monitor, base_,
                 wire::EncodeSuspicionReport(report), 0);
    outbox.last_sent_round = round;
  }

  // (b) Emit / re-emit dissemination to unacked targets of this epoch.
  for (auto& [node, pending] : pending_installs_) {
    if (pending.acked) continue;
    if (pending.last_sent_round >= 0 &&
        round - pending.last_sent_round < kResendAfterRounds) {
      continue;
    }
    const NodeId target = node;
    std::erase_if(in_flight_, [target](const ControlMessage& m) {
      return (m.kind == ControlMessage::Kind::kImage ||
              m.kind == ControlMessage::Kind::kBump) &&
             m.target == target;
    });
    if (pending.is_bump) {
      QueueControl(ControlMessage::Kind::kBump, base_, node,
                   wire::EncodeEpochBump(epoch_), epoch_);
    } else {
      // Full images cross many hops; the CRC32 frame lets the installer
      // prove the bytes arrived intact before decoding them, so channel
      // bit-flips are rejected before the structural decoder ever runs.
      QueueControl(ControlMessage::Kind::kImage, base_, node,
                   Crc32Frame(images()[node]), epoch_);
    }
    pending.last_sent_round = round;
  }

  // (c) Advance every message as many hops as deliver this round. A
  // delivery can append follow-up messages (report acks, install acks),
  // which this index walk then also advances — an ack can travel the same
  // round its trigger arrived.
  std::vector<size_t> delivered;
  for (size_t i = 0; i < in_flight_.size(); ++i) {
    if (in_flight_[i].last_advanced_round == round) continue;
    in_flight_[i].last_advanced_round = round;
    while (in_flight_[i].holder != in_flight_[i].target) {
      const NodeId holder = in_flight_[i].holder;
      const NodeId target = in_flight_[i].target;
      // Every control message starts or ends at the base, so one column
      // routes them all: messages toward the base read it directly, and
      // base-originated ones (images, bumps, report acks) read their
      // target's base path backwards — the same hop NextHop would give.
      NodeId next = in_flight_[i].origin == base_
                        ? control_paths_.NextHopAlong(base_, holder, target)
                        : kInvalidNode;
      if (next == kInvalidNode) {
        // Off that path (a refresh rerouted the message mid-route) or no
        // base route at all. Prefer the believed topology; when it offers
        // no route, fall back to the deployment route. The message with no
        // believed route may be the very report that corrects the belief
        // (a merged monitor retracting the cut it sits behind), and every
        // hop is still gated by the physical layer below.
        const PathSystem& paths =
            control_paths_.PathWeight(holder, target) == kUnreachableWeight
                ? deployment_paths_
                : control_paths_;
        if (paths.PathWeight(holder, target) == kUnreachableWeight) {
          break;  // Physically severed deployment; retry next round.
        }
        next = paths.NextHop(holder, target);
      }
      int attempt_base = 0;
      switch (in_flight_[i].kind) {
        case ControlMessage::Kind::kReport:
        case ControlMessage::Kind::kReportAck:
          attempt_base = 2000;
          break;
        case ControlMessage::Kind::kImage:
        case ControlMessage::Kind::kBump:
          attempt_base = 3000;
          break;
        case ControlMessage::Kind::kInstallAck:
          attempt_base = 4000;
          break;
      }
      attempt_base += (in_flight_[i].seq % 60) * 16;
      bool crossed = false;
      for (int k = 1; k <= kControlHopAttempts; ++k) {
        result.control_hop_attempts += 1;
        if (physical.attempt_delivers(holder, next, attempt_base + k)) {
          crossed = true;
          break;
        }
      }
      if (!crossed) break;  // Stalled at this hop; resume next round.
      result.control_hops_crossed += 1;
      in_flight_[i].holder = next;
    }
    if (in_flight_[i].holder == in_flight_[i].target) {
      result.control_messages_delivered += 1;
      result.control_payload_bytes +=
          static_cast<int64_t>(in_flight_[i].payload.size());
      // Deliveries can push into in_flight_ (reallocation): copy first.
      ControlMessage message = in_flight_[i];
      delivered.push_back(i);
      if (trace != nullptr) {
        trace->Control(round, message.kind, message.origin, message.target,
                       message.payload.size());
      }
      DeliverControl(message, round);
    }
  }
  for (auto it = delivered.rbegin(); it != delivered.rend(); ++it) {
    in_flight_.erase(in_flight_.begin() + static_cast<ptrdiff_t>(*it));
  }
}

void SelfHealingRuntime::DeliverControl(const ControlMessage& message,
                                        int round) {
  switch (message.kind) {
    case ControlMessage::Kind::kReport: {
      auto report = wire::TryDecodeSuspicionReport(message.payload);
      M2M_CHECK(report.has_value()) << "malformed suspicion report";
      for (const auto& [neighbor, raised] : report->entries) {
        ledger_.RecordSuspicion(report->monitor, neighbor);
      }
      for (const auto& [neighbor, readmit_round] : report->retractions) {
        ledger_.RecordReadmission(report->monitor, neighbor);
      }
      // Ack echoes the report so the monitor knows which entries landed.
      QueueControl(ControlMessage::Kind::kReportAck, base_, report->monitor,
                   message.payload, 0);
      break;
    }
    case ControlMessage::Kind::kReportAck: {
      auto report = wire::TryDecodeSuspicionReport(message.payload);
      M2M_CHECK(report.has_value()) << "malformed report ack";
      MonitorOutbox& outbox = monitor_outbox_[report->monitor];
      for (const auto& entry : report->entries) {
        outbox.pending.erase(entry);
        // The ack proves the base recorded this suspicion. If the monitor
        // has since readmitted the link, the acked verdict is already
        // stale — without a fresh retraction a late-delivered report would
        // poison the ledger for good (the monitor otherwise has nothing
        // left queued to correct it).
        if (!detector_.Suspects(report->monitor, entry.first)) {
          outbox.retractions.emplace(entry.first, round);
        }
      }
      for (const auto& entry : report->retractions) {
        outbox.retractions.erase(entry);
      }
      break;
    }
    case ControlMessage::Kind::kImage: {
      if (message.epoch != epoch_) break;  // Superseded mid-flight.
      std::optional<std::vector<uint8_t>> image =
          TryOpenCrc32Frame(message.payload);
      M2M_CHECK(image.has_value())
          << "plan image for node " << message.target
          << " failed its CRC32 frame check";
      if (!network_.InstallNodeImage(message.target, *image, compiled())) {
        RecordEpochDivergence(message.target);
        break;  // No ack: the install stays pending for the next epoch.
      }
      QueueControl(ControlMessage::Kind::kInstallAck, message.target, base_,
                   wire::EncodeInstallAck(message.target, message.epoch),
                   message.epoch);
      break;
    }
    case ControlMessage::Kind::kBump: {
      auto epoch = wire::TryDecodeEpochBump(message.payload);
      M2M_CHECK(epoch.has_value()) << "malformed epoch bump";
      if (*epoch != epoch_) break;  // Superseded mid-flight.
      // The bump re-stamps tables the node already holds: only 5 bytes
      // traveled, but the install path is the same as for a full image.
      if (!network_.InstallNodeImage(message.target, images()[message.target],
                                     compiled())) {
        RecordEpochDivergence(message.target);
        break;
      }
      QueueControl(ControlMessage::Kind::kInstallAck, message.target, base_,
                   wire::EncodeInstallAck(message.target, *epoch), *epoch);
      break;
    }
    case ControlMessage::Kind::kInstallAck: {
      auto ack = wire::TryDecodeInstallAck(message.payload);
      M2M_CHECK(ack.has_value()) << "malformed install ack";
      if (ack->second != epoch_) break;  // Ack for a superseded epoch.
      auto it = pending_installs_.find(ack->first);
      if (it != pending_installs_.end()) {
        it->second.acked = true;
      }
      break;
    }
  }
}

void SelfHealingRuntime::RecordEpochDivergence(NodeId node) {
  foreign_epoch_max_ =
      std::max(foreign_epoch_max_, network_.plan_epoch(node));
  epoch_divergence_pending_ = true;
  install_bounced_[node] = 1;
  if (metrics_ != nullptr) {
    metrics_->AddNode(handles_.epoch_divergences, node, 1);
  }
}

void SelfHealingRuntime::RebuildBelievedWorkload() {
  workload_ = original_workload_;
  // Unreachable nodes stop being sources (paper section 3: membership
  // changes shrink the workload, then the plan is patched locally).
  // Unreachable is believed dead or, in partition-aware mode, believed
  // partitioned. Losing nodes can swallow a task whole — its destination,
  // or its every source — so filter the tasks directly: drop tasks with an
  // unreachable destination, strip unreachable sources, drop tasks left
  // without sources. The believed workload is recomputed from the original
  // on every belief change, so dropped tasks and stripped sources come
  // back verbatim when their nodes are readmitted or their island merges.
  if (ledger_.believed_dead().empty() &&
      ledger_.believed_partitioned().empty()) {
    return;
  }
  auto unreachable = [this](NodeId node) {
    return ledger_.belief(node) != NodeBelief::kAlive;
  };
  Workload pruned;
  for (size_t i = 0; i < workload_.tasks.size(); ++i) {
    Task task = workload_.tasks[i];
    FunctionSpec spec = workload_.specs[i];
    if (unreachable(task.destination)) continue;
    std::erase_if(task.sources, unreachable);
    std::erase_if(spec.weights, [&unreachable](const auto& entry) {
      return unreachable(entry.first);
    });
    if (task.sources.empty()) continue;
    pruned.tasks.push_back(std::move(task));
    pruned.specs.push_back(std::move(spec));
  }
  pruned.RebuildFunctions();
  workload_ = std::move(pruned);
}

void SelfHealingRuntime::MaybeReplan(int round,
                                     SelfHealingRoundResult& result,
                                     EventTrace* trace) {
  if (ledger_.revision() == ledger_revision_applied_ &&
      workload_revision_ == workload_revision_applied_ &&
      !epoch_divergence_pending_ && !energy_rotation_pending_) {
    return;
  }
  ledger_revision_applied_ = ledger_.revision();
  workload_revision_applied_ = workload_revision_;
  epoch_divergence_pending_ = false;
  const bool energy_rotation = energy_rotation_pending_;
  energy_rotation_pending_ = false;

  RebuildBelievedWorkload();
  // Battery mode routes every replan over residual-energy link costs: paths
  // (and therefore the patched forest) bend away from drained relays. With
  // full batteries the cost is exactly 1.0 per link, which produces weights
  // bit-identical to the legacy hop-count metric — battery-aware replans
  // only diverge from legacy ones once some battery has actually drained.
  PathSystem believed_paths =
      options_.energy.battery_aware
          ? PathSystem(ledger_.belief_graph(), 0x5eed,
                       ResidualEnergyLinkCost(
                           PredictedResidualFractions(),
                           kResidualCostPenalty))
          : PathSystem(ledger_.belief_graph());
  // The reconciling epoch must supersede every lineage it has seen —
  // including epochs a partitioned island opened while split. Higher epoch
  // wins at every node, so opening above max(ours, theirs) converges both
  // sides onto this plan.
  const uint32_t new_epoch = std::max(epoch_, foreign_epoch_max_) + 1;
  PlanGeneration::Proposal proposal = generation_.Propose(
      believed_paths, workload_.tasks, workload_.functions, new_epoch);
  const UpdateStats stats = proposal.stats;
  const std::vector<NodeImageDelta> deltas =
      generation_.Adopt(std::move(proposal));

  // The new epoch supersedes any dissemination still in flight.
  std::erase_if(in_flight_, [](const ControlMessage& m) {
    return m.kind == ControlMessage::Kind::kImage ||
           m.kind == ControlMessage::Kind::kBump;
  });
  pending_installs_.clear();

  epoch_ = new_epoch;
  epoch_opened_round_[new_epoch] = round;
  if (options_.energy.battery_aware) {
    // The base predicts future drain from the plan it just installed — the
    // rotation trigger and exhaustion classifier track the new load shape
    // from the next round on.
    predicted_drain_mj_ =
        CompiledRoundEnergyMj(compiled(), options_.energy.model);
  }

  for (const NodeImageDelta& delta : deltas) {
    if (ledger_.belief(delta.node) != NodeBelief::kAlive) {
      continue;  // Nothing can be installed at a dead or cut-off node.
    }
    if (delta.node == base_) {
      // The base station installs its own image locally, for free.
      network_.InstallNodeImage(base_, images()[base_], compiled());
      continue;
    }
    pending_installs_[delta.node].is_bump = !delta.ship_image;
  }
  // The diff only covers nodes whose image content changed or is non-empty,
  // but some nodes' actual tables are unknown regardless: a node merging
  // back from a believed partition ran (possibly many) rounds on its own, a
  // readmitted node rebooted with whatever epoch it last installed, and a
  // node whose install bounced holds a foreign lineage. Each may hold no
  // delta entry yet carry stale or foreign state, so each believed-alive
  // one gets a full CRC-framed image under the new epoch, diff or not
  // (lineage reconciliation: higher epoch wins).
  for (NodeId node = 0; node < static_cast<NodeId>(replan_beliefs_.size());
       ++node) {
    const NodeBelief was = replan_beliefs_[node];
    const NodeBelief now = ledger_.belief(node);
    const bool bounced = install_bounced_[node] != 0;
    replan_beliefs_[node] = now;
    install_bounced_[node] = 0;
    if (node == base_ || now != NodeBelief::kAlive) continue;
    const bool merged = was == NodeBelief::kPartitioned;
    if (!merged && was != NodeBelief::kDead && !bounced) continue;
    pending_installs_[node].is_bump = false;
    if (metrics_ != nullptr) {
      metrics_->AddNode(merged ? handles_.merge_reconciliations
                               : handles_.epoch_reconciliations,
                        node, 1);
    }
  }
  int images_queued = 0;
  int bumps_queued = 0;
  for (const auto& [node, pending] : pending_installs_) {
    if (pending.is_bump) {
      ++bumps_queued;
    } else {
      ++images_queued;
    }
  }

  result.replanned = true;
  result.energy_rotation = energy_rotation;
  if (metrics_ != nullptr) {
    if (energy_rotation) metrics_->Add(handles_.energy_rotations, 1);
    metrics_->Add(handles_.replans, 1);
    metrics_->Add(handles_.images_queued, images_queued);
    metrics_->Add(handles_.bumps_queued, bumps_queued);
    metrics_->Add(handles_.edges_reused, stats.edges_reused);
    metrics_->Add(handles_.edges_reoptimized, stats.edges_reoptimized);
  }
  if (trace != nullptr) {
    trace->Replan(round, epoch_,
                  static_cast<int>(ledger_.believed_failed_links().size()),
                  static_cast<int>(ledger_.believed_dead().size()),
                  images_queued, bumps_queued, stats.edges_reused,
                  stats.edges_reoptimized);
  }
}

void SelfHealingRuntime::ComputePartitionStatus(
    SelfHealingRoundResult& result) {
  const std::vector<NodeId>& parted = ledger_.believed_partitioned();
  result.believed_partitioned = parted;

  int degraded_destinations = 0;
  for (size_t i = 0; i < original_workload_.tasks.size(); ++i) {
    const Task& task = original_workload_.tasks[i];
    DestinationPartitionStatus status;
    const NodeBelief destination = ledger_.belief(task.destination);
    status.destination_reachable = destination == NodeBelief::kAlive;
    status.expected_original = static_cast<int>(task.sources.size());
    for (NodeId source : task.sources) {
      const NodeBelief belief = ledger_.belief(source);
      if (belief == NodeBelief::kDead) {
        status.dead_sources.push_back(source);
      } else if (belief == NodeBelief::kPartitioned) {
        status.partitioned_sources.push_back(source);
      } else {
        ++status.believed_covered;
      }
    }
    status.original_coverage =
        status.expected_original == 0
            ? 1.0
            : static_cast<double>(status.believed_covered) /
                  status.expected_original;
    status.degraded = !status.destination_reachable ||
                      !status.dead_sources.empty() ||
                      !status.partitioned_sources.empty();
    status.degraded_by_partition = destination == NodeBelief::kPartitioned ||
                                   !status.partitioned_sources.empty();
    if (status.degraded) ++degraded_destinations;
    result.partition_status[task.destination] = std::move(status);
  }

  if (metrics_ != nullptr) {
    metrics_->Set(handles_.believed_partitioned,
                  static_cast<int64_t>(parted.size()));
    for (NodeId node : parted) {
      if (!std::binary_search(believed_partitioned_last_.begin(),
                              believed_partitioned_last_.end(), node)) {
        metrics_->AddNode(handles_.partition_events, node, 1);
      }
    }
    for (NodeId node : believed_partitioned_last_) {
      if (ledger_.belief(node) != NodeBelief::kPartitioned) {
        metrics_->AddNode(handles_.merge_events, node, 1);
      }
    }
    metrics_->Add(handles_.degraded_destination_rounds,
                  degraded_destinations);
  }
  believed_partitioned_last_ = parted;
}

void SelfHealingRuntime::ChargeBatteries(
    int round, const SelfHealingRoundResult& result, EventTrace* trace) {
  M2M_CHECK_EQ(static_cast<int>(result.data.node_energy_mj.size()),
               battery_.node_count())
      << "battery mode needs per-node energy tracking on the network";
  const std::vector<NodeId> depleted_before = battery_.depleted_nodes();
  // Physical ledger drains what the round actually transmitted; the
  // predicted ledger drains what the installed plan *should* cost per
  // round (CompiledRoundEnergyMj). The base station only ever reads the
  // latter — its energy decisions stay in-band.
  battery_.ChargeRound(result.data.node_energy_mj);
  predicted_.ChargeRound(predicted_drain_mj_);
  for (NodeId node : battery_.depleted_nodes()) {
    if (Contains(depleted_before, node)) continue;
    if (trace != nullptr) {
      trace->Text("round " + std::to_string(round) + ": node " +
                  std::to_string(node) + " energy-exhaustion");
    }
    if (metrics_ != nullptr) {
      metrics_->AddNode(handles_.energy_exhaustions, node, 1);
    }
  }
}

void SelfHealingRuntime::UpdateEnergyBeliefs(int round,
                                             SelfHealingRoundResult& result,
                                             EventTrace* trace) {
  result.battery_depleted = battery_.depleted_nodes();

  // In-band exhaustion classification: a believed-dead mortal node whose
  // *predicted* residual is at or below the classify fraction died of its
  // battery, not a crash. Pure annotation — the death itself was detected
  // by the ordinary suspicion machinery.
  const std::vector<double> fractions = PredictedResidualFractions();
  for (NodeId node : ledger_.believed_dead()) {
    if (!predicted_.immortal(node) &&
        fractions[node] <= kExhaustionClassifyFraction) {
      result.believed_energy_dead.push_back(node);
    }
  }

  // Proactive rotation watches the minimum predicted residual over nodes
  // the current plan actually loads (unloaded nodes cannot be rotated off
  // anything). The trigger level only ever descends — threshold first,
  // then at least `kRotationHysteresis` lower after every rotation — and
  // batteries only drain, so the trigger cannot flap; the cooldown bounds
  // rotation frequency even while the minimum keeps falling.
  double predicted_min = 1.0;
  for (NodeId n = 0; n < predicted_.node_count(); ++n) {
    if (predicted_.immortal(n)) continue;
    if (predicted_drain_mj_[n] <= 0.0) continue;
    predicted_min = std::min(predicted_min, fractions[n]);
  }

  if (options_.energy.proactive_rotation &&
      predicted_min <= rotation_trigger_level_ &&
      round - last_rotation_round_ >=
          options_.energy.rotation_cooldown_rounds) {
    energy_rotation_pending_ = true;
    last_rotation_round_ = round;
    rotation_trigger_level_ = std::min(
        rotation_trigger_level_ - kRotationHysteresis,
        predicted_min - kRotationHysteresis);
    if (trace != nullptr) {
      trace->Text(
          "round " + std::to_string(round) +
          ": energy rotation trigger, predicted min residual " +
          std::to_string(std::llround(predicted_min * 1000.0)) +
          " permille");
    }
  }

  if (metrics_ != nullptr) {
    // Minimum actual residual fraction over mortal nodes after this round.
    double min_fraction = 1.0;
    for (NodeId n = 0; n < battery_.node_count(); ++n) {
      if (battery_.immortal(n)) continue;
      min_fraction = std::min(min_fraction, battery_.residual_fraction(n));
    }
    metrics_->Set(handles_.energy_rounds, battery_.rounds_charged());
    metrics_->Set(handles_.energy_drain,
                  std::llround(battery_.total_drain_mj() * 1000.0));
    metrics_->Set(handles_.energy_depleted,
                  static_cast<int64_t>(result.battery_depleted.size()));
    metrics_->Set(
        handles_.energy_dead,
        static_cast<int64_t>(result.believed_energy_dead.size()));
    metrics_->Set(handles_.energy_min_residual,
                  std::llround(min_fraction * 1000.0));
  }
}

std::vector<double> SelfHealingRuntime::PredictedResidualFractions() const {
  std::vector<double> fractions(predicted_.node_count(), 1.0);
  for (NodeId n = 0; n < predicted_.node_count(); ++n) {
    fractions[n] = predicted_.residual_fraction(n);
  }
  return fractions;
}

}  // namespace m2m
