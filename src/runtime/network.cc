#include "runtime/network.h"

#include <algorithm>
#include <array>
#include <limits>
#include <span>
#include <type_traits>

#include "common/bytes.h"
#include "common/check.h"
#include "common/crc32.h"
#include "plan/serialization.h"
#include "runtime/tick_agenda.h"
#include "runtime/wire_functions.h"
#include "sim/attempt_namespaces.h"

namespace m2m {

int64_t RetryPolicy::BackoffWaitTicks(int attempt) const {
  M2M_CHECK_GE(attempt, 1);
  // The clamp doubles as the overflow guard: wait only grows while below
  // max_backoff_ticks, so the product never exceeds
  // max_backoff_ticks * backoff_factor, well inside int64.
  int64_t wait = ack_timeout_ticks;
  for (int k = 1; k < attempt && wait < max_backoff_ticks; ++k) {
    wait *= backoff_factor;
  }
  return std::min(wait, max_backoff_ticks);
}

int64_t RetryPolicy::RetryHorizonTicks() const {
  int64_t horizon = 1;
  int64_t wait = ack_timeout_ticks;
  for (int k = 1; k < max_attempts; ++k) {
    horizon += std::min(wait, max_backoff_ticks);
    if (wait < max_backoff_ticks) wait *= backoff_factor;
  }
  return horizon;
}

void SortUniqueHops(std::vector<std::pair<NodeId, NodeId>>& hops,
                    int node_count) {
  if (hops.empty()) return;
  int id_bits = 0;  // ceil(log2(node_count)): every id fits.
  while ((int64_t{1} << id_bits) < node_count) ++id_bits;
  std::vector<uint64_t> keys;
  keys.reserve(hops.size());
  for (const auto& [from, to] : hops) {
    M2M_CHECK(from >= 0 && from < node_count && to >= 0 && to < node_count)
        << "hop " << from << ">" << to << " outside " << node_count
        << " nodes";
    keys.push_back(static_cast<uint64_t>(from) << id_bits |
                   static_cast<uint64_t>(to));
  }
  // LSD radix sort, one stable counting pass per 11-bit digit.
  constexpr int kDigitBits = 11;
  constexpr uint64_t kDigitMask = (uint64_t{1} << kDigitBits) - 1;
  std::vector<uint64_t> sorted(keys.size());
  for (int shift = 0; shift < 2 * id_bits; shift += kDigitBits) {
    std::array<size_t, size_t{1} << kDigitBits> offsets{};
    for (uint64_t key : keys) ++offsets[(key >> shift) & kDigitMask];
    size_t at = 0;
    for (size_t& offset : offsets) at += std::exchange(offset, at);
    for (uint64_t key : keys) {
      sorted[offsets[(key >> shift) & kDigitMask]++] = key;
    }
    keys.swap(sorted);
  }
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  const uint64_t to_mask = (uint64_t{1} << id_bits) - 1;
  hops.resize(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    hops[i] = {static_cast<NodeId>(keys[i] >> id_bits),
               static_cast<NodeId>(keys[i] & to_mask)};
  }
}

RuntimeNetwork::RuntimeNetwork(const CompiledPlan& compiled,
                               const FunctionSet& functions)
    : RuntimeNetwork(compiled, EncodeAllNodeStates(compiled, functions)) {}

RuntimeNetwork::RuntimeNetwork(
    const CompiledPlan& compiled,
    const std::vector<std::vector<uint8_t>>& images) {
  M2M_CHECK_EQ(static_cast<int>(images.size()), compiled.node_count());
  nodes_.reserve(images.size());
  message_segments_.resize(images.size());
  for (NodeId n = 0; n < compiled.node_count(); ++n) {
    installed_image_bytes_ += static_cast<int64_t>(images[n].size());
    nodes_.emplace_back(n, images[n]);
    if (nodes_.back().decoded().state.entry_count() > 0) {
      participants_.push_back(n);
    }
    AssignSegments(n, compiled);
  }
}

void RuntimeNetwork::AssignSegments(NodeId node,
                                    const CompiledPlan& compiled) {
  // Segments by node-local message id (images index outgoing messages by
  // their position in the outgoing table).
  std::vector<std::vector<NodeId>>& segments = message_segments_[node];
  segments.clear();
  for (const OutgoingMessageEntry& entry :
       compiled.state(node).outgoing_table) {
    segments.emplace_back(entry.segment.begin(), entry.segment.end());
  }
}

void RuntimeNetwork::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  if (metrics_ == nullptr) return;
  handles_.tx_attempts = metrics_->Counter("runtime.tx_attempts");
  handles_.tx_bytes = metrics_->Counter("runtime.tx_bytes");
  handles_.rx_packets = metrics_->Counter("runtime.rx_packets");
  handles_.rx_bytes = metrics_->Counter("runtime.rx_bytes");
  handles_.hop_transmissions = metrics_->Counter("runtime.hop_transmissions");
  handles_.retransmissions = metrics_->Counter("runtime.retransmissions");
  handles_.backoff_wait_ticks =
      metrics_->Counter("runtime.backoff_wait_ticks");
  handles_.acks_delivered = metrics_->Counter("runtime.acks_delivered");
  handles_.acks_lost = metrics_->Counter("runtime.acks_lost");
  handles_.dedup_hits = metrics_->Counter("runtime.dedup_hits");
  handles_.epoch_gate_drops = metrics_->Counter("runtime.epoch_gate_drops");
  handles_.messages_abandoned =
      metrics_->Counter("runtime.messages_abandoned");
  handles_.attempts_per_message =
      metrics_->Histogram("runtime.attempts_per_message");
  handles_.round_ticks = metrics_->Histogram("runtime.round_ticks");
  handles_.installs = metrics_->Counter("runtime.image_installs");
  handles_.install_bytes = metrics_->Counter("runtime.image_install_bytes");
  handles_.chan_corrupt_frames = metrics_->Counter("chan.corrupt_frames");
  handles_.chan_duplicated = metrics_->Counter("chan.duplicated");
  handles_.chan_reordered = metrics_->Counter("chan.reordered");
  handles_.coverage_per_destination = metrics_->Histogram(
      "coverage.per_destination", {0, 10, 25, 50, 75, 90, 100});
  handles_.coverage_degraded_rounds =
      metrics_->Counter("coverage.degraded_rounds");
}

bool RuntimeNetwork::InstallNodeImage(NodeId node,
                                      const std::vector<uint8_t>& image,
                                      const CompiledPlan& compiled) {
  M2M_CHECK(node >= 0 && node < static_cast<NodeId>(nodes_.size()));
  M2M_CHECK_EQ(compiled.node_count(), node_count());
  if (!nodes_[node].InstallImage(image)) {
    // Stale lineage: the node already runs a newer epoch; keep its current
    // tables and routes untouched (higher epoch wins).
    return false;
  }
  AssignSegments(node, compiled);
  const size_t outgoing = nodes_[node].decoded().state.outgoing_table.size();
  M2M_CHECK_EQ(message_segments_[node].size(), outgoing)
      << "node " << node << ": segment routes do not match outgoing table";
  UpdateParticipation(node);
  for (const std::vector<NodeId>& segment : message_segments_[node]) {
    M2M_CHECK_GE(segment.size(), 2u);
  }
  if (metrics_ != nullptr) {
    metrics_->AddNode(handles_.installs, node, 1);
    metrics_->AddNode(handles_.install_bytes, node,
                      static_cast<int64_t>(image.size()));
  }
  return true;
}

void RuntimeNetwork::UpdateParticipation(NodeId node) {
  // A binary search, plus a shift of the (participant-sized) list only when
  // the install moved the node into or out of the plan.
  const bool participates = nodes_[node].decoded().state.entry_count() > 0;
  auto it = std::lower_bound(participants_.begin(), participants_.end(), node);
  const bool listed = it != participants_.end() && *it == node;
  if (participates && !listed) participants_.insert(it, node);
  if (!participates && listed) participants_.erase(it);
}

uint32_t RuntimeNetwork::plan_epoch(NodeId node) const {
  M2M_CHECK(node >= 0 && node < static_cast<NodeId>(nodes_.size()));
  return nodes_[node].plan_epoch();
}

const NodeRuntime& RuntimeNetwork::node_runtime(NodeId node) const {
  M2M_CHECK(node >= 0 && node < static_cast<NodeId>(nodes_.size()));
  return nodes_[node];
}

RuntimeNetwork::LossyResult RuntimeNetwork::RunRoundLossy(
    const std::vector<double>& readings, const LossyLinkModel& links,
    const RetryPolicy& retry, const EnergyModel& energy, EventTrace* trace) {
  M2M_CHECK_EQ(readings.size(), nodes_.size());
  M2M_CHECK(links.attempt_delivers != nullptr);
  M2M_CHECK_GE(retry.max_attempts, 1);
  M2M_CHECK_LT(retry.max_attempts, kProbeAttemptBase)
      << "data attempts must stay below the probe namespace";
  M2M_CHECK_GE(retry.ack_timeout_ticks, 1);
  M2M_CHECK_GE(retry.backoff_factor, 1);
  M2M_CHECK_GE(retry.max_backoff_ticks, retry.ack_timeout_ticks)
      << "max_backoff_ticks must not undercut the base ack timeout";
  M2M_CHECK_GE(links.max_delay_ticks, 0);
  // Ticks stay in int. This bounds one message's retry horizon, so a
  // pathological policy (huge max_attempts * huge clamp) fails up front;
  // `schedule` below catches a chain of dependent messages running past
  // INT_MAX. Both fail loudly rather than wrap.
  const int64_t retry_horizon_ticks = retry.RetryHorizonTicks();
  // Channel delay widens the duplicate window: a late retransmission can
  // arrive up to max_delay_ticks after it was sent, so the receiver-side
  // dedup eviction horizon stretches by exactly that much (the boundary
  // stays exact — see the delayed-duplicate regression tests).
  const int64_t evict_horizon_ticks =
      retry_horizon_ticks + links.max_delay_ticks;
  M2M_CHECK_LE(evict_horizon_ticks, int64_t{1} << 30)
      << "retry policy horizon overflows the tick domain";
  auto alive = [&](NodeId n) {
    return links.node_alive == nullptr || links.node_alive(n);
  };
  LossyResult result;
  if (track_node_energy_) {
    result.node_energy_mj.assign(nodes_.size(), 0.0);
  }

  // One in-flight message instance per emitted packet; retransmissions
  // reuse the instance with a bumped attempt counter. Payloads live in the
  // round's packet arena, so a transfer is a few plain words.
  struct Transfer {
    NodeId sender = kInvalidNode;
    NodeRuntime::OutgoingPacket packet;  ///< Payload bytes are in `arena`.
    uint32_t epoch = 0;  ///< Sender's plan epoch, stamped at emission.
    int attempts_made = 0;
    bool delivered_once = false;
    bool acked = false;
    /// Final verdict recorded (attempts histogram, abandoned accounting).
    bool done = false;
    /// Delayed deliveries/acks of this message still in flight.
    int pending_events = 0;
    /// Scheduled retransmissions not yet popped (a pop after the ack lands
    /// is skipped, so these must block the final abandoned verdict).
    int pending_retransmits = 0;
    /// Highest attempt index whose copy has arrived (reorder detection).
    int last_arrival_attempt = 0;
  };
  static_assert(std::is_trivially_copyable_v<Transfer>);
  std::vector<Transfer> transfers;
  ByteWriter arena;
  std::vector<NodeRuntime::OutgoingPacket> drained;
  auto payload_of = [&arena](const Transfer& transfer) {
    return std::span<const uint8_t>(arena.bytes())
        .subspan(transfer.packet.payload_offset, transfer.packet.payload_size);
  };

  // The agenda holds every future action: (re)transmissions, plus — under
  // an adversarial channel — delayed packet arrivals and delayed acks.
  // With a clean channel only kTransmit events exist and the schedule is
  // tick-for-tick the legacy stop-and-wait behavior. The agenda pops in
  // (tick, schedule-seq) order, which is exactly the tick-ascending,
  // append-ordered walk the original per-tick vectors performed — the
  // round barrier is a special case of the discrete-event engine.
  struct Event {
    enum class Kind : uint8_t { kTransmit, kDeliver, kAckArrive };
    Kind kind = Kind::kTransmit;
    bool retransmit = false;  ///< kTransmit: skip if already acked/done.
    bool corrupt = false;
    bool is_dup = false;  ///< Channel-duplicated copy, not a retry.
    uint32_t index = 0;   ///< Into `transfers`.
    int attempt = 0;      ///< kDeliver/kAckArrive: producing attempt.
    uint32_t corrupt_bit = 0;
  };
  static_assert(std::is_trivially_copyable_v<Event>);
  // Events land at most max(channel delay + 1, longest backoff wait) ticks
  // ahead of the popping tick, so a window that wide keeps every event in
  // the ring (the agenda caps it and sends anything further to overflow).
  TickAgenda<Event> agenda(std::max<int64_t>(
      int64_t{links.max_delay_ticks} + 2,
      retry.BackoffWaitTicks(std::max(1, retry.max_attempts - 1)) + 1));
  auto schedule = [&agenda](int64_t tick, const Event& event) {
    M2M_CHECK_LE(tick, int64_t{std::numeric_limits<int>::max()})
        << "lossy round tick overflows int";
    agenda.Schedule(tick, event);
  };

  // Eviction agenda: one record per dedup stamp, in stamp order (events
  // pop in tick order, so stamps never decrease).
  struct Stamp {
    int tick = 0;
    NodeId node = kInvalidNode;
  };
  std::vector<Stamp> stamps;
  size_t stamps_evicted = 0;  // Records [0, stamps_evicted) are popped.

  // Handlers write the round's shared state — result counters, energy
  // terms, heard-evidence, metrics, trace records and the agenda — directly,
  // in event order. A new transfer is pushed mid-event, so handlers go
  // through indices into `transfers`, never held references across a push.
  auto collect = [&](NodeRuntime& node, int64_t tick) {
    node.DrainReadyPackets(arena, drained);
    for (const NodeRuntime::OutgoingPacket& packet : drained) {
      M2M_CHECK_LT(transfers.size(), size_t{UINT32_MAX});
      transfers.push_back(Transfer{node.id(), packet, node.plan_epoch()});
      Event event;
      event.index = static_cast<uint32_t>(transfers.size() - 1);
      schedule(tick, event);
    }
  };
  auto observe_message_done = [&](const Transfer& transfer) {
    if (metrics_ != nullptr) {
      metrics_->Observe(handles_.attempts_per_message, transfer.attempts_made);
    }
  };
  // Records the final verdict for a message exactly once, as soon as it is
  // known: acked, or retry budget spent with nothing left in flight.
  auto maybe_finalize = [&](uint32_t index, int tick) {
    Transfer& t = transfers[index];
    if (t.done) return;
    if (t.acked) {
      t.done = true;
      observe_message_done(t);
      return;
    }
    if (t.attempts_made >= retry.max_attempts && t.pending_events == 0 &&
        t.pending_retransmits == 0) {
      t.done = true;
      observe_message_done(t);
      if (!t.delivered_once) {
        result.messages_abandoned += 1;
        if (metrics_ != nullptr) {
          metrics_->AddNode(handles_.messages_abandoned, t.sender, 1);
        }
        if (trace != nullptr) {
          trace->GiveUp(tick, t.sender, t.packet.recipient,
                        t.packet.local_message_id);
        }
      }
    }
  };
  auto apply_ack = [&](uint32_t index) {
    if (metrics_ != nullptr) {
      metrics_->AddNode(handles_.acks_delivered, transfers[index].sender, 1);
    }
    transfers[index].acked = true;
  };

  // One copy of the message arriving at the recipient (inline when the
  // channel adds no delay, or as a popped kDeliver event): CRC gate, then
  // dedup/epoch-gated receive, then the reverse-path ack walk.
  auto process_arrival = [&](uint32_t index, int attempt, int arrival_tick,
                             bool corrupt, uint32_t corrupt_bit,
                             bool is_dup) {
    const NodeId sender = transfers[index].sender;
    const int message_id = transfers[index].packet.local_message_id;
    const NodeId packet_recipient = transfers[index].packet.recipient;
    const int payload = static_cast<int>(transfers[index].packet.payload_size);
    const std::vector<NodeId>& segment =
        message_segments_[sender][message_id];

    if (corrupt) {
      // Bit-flip in transit: the CRC32 frame check rejects the packet
      // before any decoding. No ack — the sender's retry budget covers
      // corruption exactly like a drop, but the event is *counted*.
      const std::span<const uint8_t> bytes = payload_of(transfers[index]);
      std::vector<uint8_t> frame =
          Crc32Frame(std::vector<uint8_t>(bytes.begin(), bytes.end()));
      size_t bit = corrupt_bit % (frame.size() * 8);
      frame[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      std::optional<std::vector<uint8_t>> opened = TryOpenCrc32Frame(frame);
      if (!opened.has_value()) {
        result.corrupt_frames += 1;
        if (metrics_ != nullptr) {
          metrics_->AddNode(handles_.chan_corrupt_frames, packet_recipient, 1);
        }
        if (trace != nullptr) {
          trace->Send(arrival_tick, sender, packet_recipient, message_id,
                      attempt, payload, obs::SendOutcome::kCorrupt,
                      /*ack_lost=*/false, /*drop_hop=*/0);
        }
        return;
      }
      // Unreachable for a genuine bit flip (CRC32 detects every single-bit
      // error); if the checksum somehow matched, the frame is intact.
    }

    result.deliveries += 1;
    result.payload_bytes += payload;
    if (is_dup) {
      result.spontaneous_duplicates += 1;
      if (metrics_ != nullptr) metrics_->Add(handles_.chan_duplicated, 1);
    }
    if (attempt < transfers[index].last_arrival_attempt) {
      // A delayed copy landed after a newer attempt already arrived.
      result.reordered_deliveries += 1;
      if (metrics_ != nullptr) metrics_->Add(handles_.chan_reordered, 1);
    } else {
      transfers[index].last_arrival_attempt = attempt;
    }
    NodeRuntime& recipient = nodes_[packet_recipient];
    if (metrics_ != nullptr) {
      metrics_->AddNode(handles_.rx_packets, packet_recipient, 1);
      metrics_->AddNode(handles_.rx_bytes, packet_recipient, payload);
    }
    obs::SendOutcome outcome = obs::SendOutcome::kRx;
    // The payload view dies at the collect() below: draining may grow the
    // arena.
    const NodeRuntime::ReceiveOutcome received = recipient.OnReceiveOnce(
        sender, message_id, transfers[index].epoch,
        payload_of(transfers[index]), arrival_tick);
    if (received != NodeRuntime::ReceiveOutcome::kEpochMismatch) {
      // The receive stamped (or refreshed) a dedup entry: queue it for
      // eviction. A same-epoch packet only ever reaches a node whose tables
      // consume it, so round start and the end-of-round passes can skip
      // every non-participant.
      M2M_CHECK(std::binary_search(participants_.begin(), participants_.end(),
                                   packet_recipient))
          << "node " << packet_recipient
          << " received a same-epoch packet without holding a table entry";
      M2M_CHECK(stamps.empty() || stamps.back().tick <= arrival_tick)
          << "dedup stamps must not go back in time";
      stamps.push_back(Stamp{arrival_tick, packet_recipient});
    }
    switch (received) {
      case NodeRuntime::ReceiveOutcome::kFresh:
        transfers[index].delivered_once = true;
        collect(recipient, int64_t{arrival_tick} + 1);
        outcome = obs::SendOutcome::kRx;
        break;
      case NodeRuntime::ReceiveOutcome::kDuplicate:
        result.duplicates += 1;
        if (metrics_ != nullptr) {
          metrics_->AddNode(handles_.dedup_hits, packet_recipient, 1);
        }
        outcome = obs::SendOutcome::kDuplicate;
        break;
      case NodeRuntime::ReceiveOutcome::kEpochMismatch:
        // Dropped whole, but still acked below: the mismatch is a plan
        // generation gap, not a link failure — retrying cannot help.
        transfers[index].delivered_once = true;
        result.epoch_rejected += 1;
        if (metrics_ != nullptr) {
          metrics_->AddNode(handles_.epoch_gate_drops, packet_recipient, 1);
        }
        outcome = obs::SendOutcome::kEpochRejected;
        break;
    }
    // Ack travels the segment in reverse; header-only payload. A delayed
    // ack arrives as a kAckArrive event — retransmissions it crosses in
    // flight are suppressed by the receiver dedup, and the sender stops
    // retrying the moment the ack lands.
    bool ack_ok = true;
    int ack_hops = 0;
    int ack_delay = 0;
    for (size_t h = segment.size() - 1; h > 0; --h) {
      if (!links.attempt_delivers(segment[h], segment[h - 1], attempt)) {
        ack_ok = false;
        break;
      }
      ++ack_hops;
      result.heard.emplace_back(segment[h], segment[h - 1]);
      if (links.hop_effects != nullptr) {
        ack_delay +=
            links.hop_effects(segment[h], segment[h - 1], attempt)
                .delay_ticks;
      }
    }
    result.energy_mj += ack_hops * energy.UnicastHopUj(0) / 1000.0;
    if (track_node_energy_) {
      // Replay the crossed ack hops for attribution: segment[h] transmitted
      // the header-only ack, segment[h - 1] received it.
      for (int crossed = 0; crossed < ack_hops; ++crossed) {
        const size_t h = segment.size() - 1 - crossed;
        result.node_energy_mj[segment[h]] += energy.TxUj(0) / 1000.0;
        result.node_energy_mj[segment[h - 1]] += energy.RxUj(0) / 1000.0;
      }
    }
    if (ack_ok) {
      ack_delay = std::min(ack_delay, links.max_delay_ticks);
      if (ack_delay <= 0) {
        apply_ack(index);
      } else {
        transfers[index].pending_events += 1;
        Event event;
        event.kind = Event::Kind::kAckArrive;
        event.index = index;
        event.attempt = attempt;
        schedule(int64_t{arrival_tick} + ack_delay, event);
      }
    } else {
      result.energy_mj += energy.TxUj(0) / 1000.0;
      if (track_node_energy_) {
        // The failed ack attempt burned one header-only TX at the node the
        // reverse walk stalled at.
        result.node_energy_mj[segment[segment.size() - 1 - ack_hops]] +=
            energy.TxUj(0) / 1000.0;
      }
      result.acks_lost += 1;
      if (metrics_ != nullptr) metrics_->AddNode(handles_.acks_lost, sender, 1);
    }
    if (trace != nullptr) {
      trace->Send(arrival_tick, sender, packet_recipient, message_id, attempt,
                  payload, outcome, /*ack_lost=*/!ack_ok, /*drop_hop=*/0);
    }
  };

  auto process_transmit = [&](uint32_t index, int tick) {
    const NodeId sender = transfers[index].sender;
    const int message_id = transfers[index].packet.local_message_id;
    const NodeId packet_recipient = transfers[index].packet.recipient;
    const std::vector<NodeId>& segment =
        message_segments_[sender][message_id];
    const int payload = static_cast<int>(transfers[index].packet.payload_size);
    const int attempt = ++transfers[index].attempts_made;
    result.attempts += 1;
    if (attempt > 1) result.retransmissions += 1;
    if (metrics_ != nullptr) {
      metrics_->AddNode(handles_.tx_attempts, sender, 1);
      metrics_->AddNode(handles_.tx_bytes, sender, payload);
      if (attempt > 1) metrics_->Add(handles_.retransmissions, 1);
    }

    // Data crosses the segment hop by hop; the first dead hop burns one
    // transmit and stops the packet. Channel effects (delay, duplication,
    // corruption) accumulate along the hops actually crossed.
    int hops_crossed = 0;
    const bool recipient_alive = alive(packet_recipient);
    bool delivered = recipient_alive;
    int data_delay = 0;
    bool dup = false;
    bool corrupt = false;
    uint32_t corrupt_bit = 0;
    if (delivered) {
      for (size_t h = 0; h + 1 < segment.size(); ++h) {
        if (!links.attempt_delivers(segment[h], segment[h + 1], attempt)) {
          delivered = false;
          break;
        }
        ++hops_crossed;
        if (metrics_ != nullptr) {
          metrics_->AddEdge(handles_.hop_transmissions, segment[h],
                            segment[h + 1], 1);
        }
        // Heartbeat evidence: segment[h+1] heard segment[h] transmit.
        result.heard.emplace_back(segment[h], segment[h + 1]);
        if (links.hop_effects != nullptr) {
          HopEffects effects =
              links.hop_effects(segment[h], segment[h + 1], attempt);
          data_delay += effects.delay_ticks;
          if (effects.duplicate) dup = true;
          if (effects.corrupt && !corrupt) {
            corrupt = true;
            corrupt_bit = effects.corrupt_bit;
          }
        }
      }
    }
    result.energy_mj += hops_crossed * energy.UnicastHopUj(payload) / 1000.0;
    if (track_node_energy_) {
      for (int h = 0; h < hops_crossed; ++h) {
        result.node_energy_mj[segment[h]] += energy.TxUj(payload) / 1000.0;
        result.node_energy_mj[segment[h + 1]] +=
            energy.RxUj(payload) / 1000.0;
      }
    }
    if (!delivered && hops_crossed + 2 <= static_cast<int>(segment.size())) {
      result.energy_mj += energy.TxUj(payload) / 1000.0;
      if (track_node_energy_) {
        // The failed (or dead-recipient) attempt burned one TX at the node
        // the forward walk stalled at.
        result.node_energy_mj[segment[hops_crossed]] +=
            energy.TxUj(payload) / 1000.0;
      }
    }

    if (delivered) {
      data_delay = std::min(data_delay, links.max_delay_ticks);
      Event event;
      event.kind = Event::Kind::kDeliver;
      event.index = index;
      event.attempt = attempt;
      event.corrupt = corrupt;
      event.corrupt_bit = corrupt_bit;
      if (data_delay <= 0) {
        process_arrival(index, attempt, tick, corrupt, corrupt_bit,
                        /*is_dup=*/false);
      } else {
        transfers[index].pending_events += 1;
        schedule(int64_t{tick} + data_delay, event);
      }
      if (dup) {
        // The spontaneous copy trails the original by one tick.
        transfers[index].pending_events += 1;
        event.is_dup = true;
        schedule(int64_t{tick} + data_delay + 1, event);
      }
    } else if (trace != nullptr) {
      trace->Send(tick, sender, packet_recipient, message_id, attempt,
                  payload,
                  recipient_alive ? obs::SendOutcome::kDropped
                                  : obs::SendOutcome::kDeadRecipient,
                  /*ack_lost=*/false,
                  /*drop_hop=*/recipient_alive ? hops_crossed + 1 : 0);
    }

    // Retry decision at send time: if no ack has landed by the backoff
    // deadline the sender retransmits. A retransmission popped after a
    // delayed ack arrived is skipped, so late acks stop the retry chain.
    if (!transfers[index].acked && !transfers[index].done &&
        attempt < retry.max_attempts) {
      const int64_t timeout = retry.BackoffWaitTicks(attempt);
      transfers[index].pending_retransmits += 1;
      Event event;
      event.index = index;
      event.retransmit = true;
      schedule(tick + timeout, event);
      if (metrics_ != nullptr) {
        metrics_->Add(handles_.backoff_wait_ticks, timeout);
      }
    }
    maybe_finalize(index, tick);
  };

  auto process_event = [&](const Event& event, int tick) {
    switch (event.kind) {
      case Event::Kind::kTransmit:
        if (event.retransmit) {
          transfers[event.index].pending_retransmits -= 1;
          if (transfers[event.index].acked || transfers[event.index].done) {
            maybe_finalize(event.index, tick);
            break;
          }
        }
        process_transmit(event.index, tick);
        break;
      case Event::Kind::kDeliver:
        transfers[event.index].pending_events -= 1;
        process_arrival(event.index, event.attempt, tick, event.corrupt,
                        event.corrupt_bit, event.is_dup);
        maybe_finalize(event.index, tick);
        break;
      case Event::Kind::kAckArrive:
        transfers[event.index].pending_events -= 1;
        apply_ack(event.index);
        maybe_finalize(event.index, tick);
        break;
    }
  };

  // Round start, in participant (node-id) order: only a node holding
  // table entries can emit. A dead participant does not start; its
  // leftover dedup table from an earlier round is dropped here, since it
  // cannot receive this round.
  for (NodeId n : participants_) {
    if (!alive(n)) {
      nodes_[n].EvictSeenPacketsBefore(std::numeric_limits<int>::max());
      continue;
    }
    nodes_[n].StartRound(readings[n]);
    collect(nodes_[n], 0);
  }

  while (!agenda.empty()) {
    const TickAgenda<Event>::Fired fired = agenda.Pop();
    const int tick = static_cast<int>(fired.tick);
    // The first event of a new tick evicts first. Dedup entries older than
    // the (delay-extended) retry horizon can never be duplicated again;
    // drop them so the table stays O(in-flight), not O(received). The
    // boundary is exact: an entry stamped t is retained through processing
    // tick t + horizon, and the last possible duplicate of its message
    // arrives at t + horizon - 1 (obs_test pins the clean-channel boundary,
    // the delayed-duplicate regression the extended one). Every stamp
    // queued its own record, so popping the records older than the cutoff
    // visits every node holding an evictable entry, and only those. Tick 0
    // (round start) is below every horizon, so it needs no eviction pass.
    if (tick != result.final_tick) {
      result.final_tick = tick;
      if (tick > evict_horizon_ticks) {
        const int evict_before = tick - static_cast<int>(evict_horizon_ticks);
        for (; stamps_evicted < stamps.size() &&
               stamps[stamps_evicted].tick < evict_before;
             ++stamps_evicted) {
          result.dedup_evictions +=
              nodes_[stamps[stamps_evicted].node].EvictSeenPacketsBefore(
                  evict_before);
        }
      }
    }
    // Events run one at a time in (tick, seq) order. Processing schedules
    // only at tick + 1 or later (arrivals collect at arrival + 1; channel
    // delays and backoffs are >= 1), and anything scheduled at this tick
    // would still pop after every earlier event, by its higher seq.
    process_event(fired.event, tick);
  }
  // Hops were appended as they were crossed; one linear sort at the end is
  // cheaper than a node-keyed set insert per hop.
  SortUniqueHops(result.heard, node_count());
  if (metrics_ != nullptr) {
    metrics_->Observe(handles_.round_ticks, result.final_tick);
  }

  // Expected contributor sets per destination: the union of
  // pre-aggregation sites (source -> destination) over every node whose
  // tables are on the destination's plan epoch. Dead nodes keep their
  // tables, so a not-yet-repaired plan truthfully reports a dead source as
  // expected-but-uncovered; once a re-plan routes around it, the new-epoch
  // tables no longer expect it and coverage returns to 1. Only
  // participants hold pre-aggregation entries.
  auto live_destination = [&](NodeId n) {
    return nodes_[n].is_destination() && alive(n);
  };
  std::vector<std::pair<NodeId, NodeId>> expected_sources;
  for (NodeId n : participants_) {
    const NodeRuntime& node = nodes_[n];
    for (const PreAggTableEntry& entry : node.decoded().state.preagg_table) {
      if (!live_destination(entry.destination)) continue;
      if (node.plan_epoch() != nodes_[entry.destination].plan_epoch()) {
        continue;
      }
      expected_sources.emplace_back(entry.destination, entry.source);
    }
  }
  std::sort(expected_sources.begin(), expected_sources.end());
  expected_sources.erase(
      std::unique(expected_sources.begin(), expected_sources.end()),
      expected_sources.end());

  bool any_degraded = false;
  for (NodeId n : participants_) {
    if (!live_destination(n)) continue;
    const NodeRuntime& node = nodes_[n];
    std::optional<double> value = node.FinalValue();
    if (value.has_value()) {
      result.destination_values[node.id()] = *value;
      result.destination_epochs[node.id()] = node.plan_epoch();
    } else {
      result.incomplete_destinations.push_back(node.id());
    }
    std::optional<NodeRuntime::CoverageReport> report =
        node.DestinationCoverage();
    if (!report.has_value()) continue;
    LossyResult::DestinationCoverage coverage;
    coverage.expected = static_cast<int>(
        std::ranges::equal_range(expected_sources, n, {},
                                 &std::pair<NodeId, NodeId>::first)
            .size());
    coverage.covered = static_cast<int>(report->summary.count);
    coverage.coverage =
        coverage.expected > 0
            ? std::min(1.0, static_cast<double>(coverage.covered) /
                                coverage.expected)
            : 1.0;
    coverage.complete = coverage.covered == coverage.expected;
    coverage.exact_known = report->summary.exact_known;
    coverage.xor_fold = report->summary.xor_fold;
    coverage.sources = report->summary.sources;
    if (!value.has_value()) {
      any_degraded = true;
      if (report->degraded_value.has_value()) {
        result.degraded_values[node.id()] = *report->degraded_value;
      }
    }
    if (metrics_ != nullptr) {
      metrics_->Observe(
          handles_.coverage_per_destination,
          static_cast<int64_t>(coverage.coverage * 100.0 + 0.5));
    }
    result.destination_coverage[node.id()] = std::move(coverage);
  }
  if (any_degraded && metrics_ != nullptr) {
    metrics_->Add(handles_.coverage_degraded_rounds, 1);
  }
  return result;
}

RuntimeNetwork::LossyResult RuntimeNetwork::RunRound(
    const std::vector<double>& readings, const EnergyModel& energy) {
  LossyLinkModel perfect;
  perfect.attempt_delivers = [](NodeId, NodeId, int) { return true; };
  LossyResult result = RunRoundLossy(readings, perfect, {}, energy);
  M2M_CHECK(result.incomplete_destinations.empty())
      << "destination " << result.incomplete_destinations.front()
      << " never completed its aggregate";
  return result;
}

}  // namespace m2m
