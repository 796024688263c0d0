#include "event/event_runtime.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/check.h"
#include "runtime/wire_functions.h"

namespace m2m::event {

EventNodeRuntime::EventNodeRuntime(NodeRuntime* node, VirtualClock clock)
    : node_(node), clock_(clock) {
  M2M_CHECK(node != nullptr);
}

std::vector<NodeRuntime::OutgoingPacket> EventNodeRuntime::HandleTimestepStart(
    double reading) {
  node_->StartRound(reading);
  started_ = true;
  // Replay the pre-start mailbox in arrival order: the dedup/epoch gates
  // apply exactly as they would have for an in-round arrival.
  for (BufferedMessage& buffered : buffer_) {
    node_->OnReceiveOnce(buffered.sender, buffered.message_id, buffered.epoch,
                         buffered.payload, buffered.tick);
  }
  buffer_.clear();
  return node_->DrainReadyPackets();
}

EventNodeRuntime::MessageResult EventNodeRuntime::HandleMessage(
    NodeId sender, int message_id, uint32_t epoch,
    const std::vector<uint8_t>& payload, int tick) {
  MessageResult result;
  if (!started_) {
    result.buffered = true;
    buffer_.push_back(
        BufferedMessage{sender, message_id, epoch, payload, tick});
    return result;
  }
  result.outcome = node_->OnReceiveOnce(sender, message_id, epoch, payload,
                                        tick);
  if (result.outcome == NodeRuntime::ReceiveOutcome::kFresh) {
    result.emitted = node_->DrainReadyPackets();
  }
  return result;
}

EventNetwork::EventNetwork(RuntimeNetwork& fleet) : fleet_(&fleet) {}

void EventNetwork::set_event_metrics(obs::MetricsRegistry* metrics) {
  event_metrics_ = metrics;
  if (event_metrics_ == nullptr) return;
  event_handles_.events_processed =
      event_metrics_->Counter("event.events_processed");
  event_handles_.queue_depth = event_metrics_->Histogram("event.queue_depth");
  event_handles_.handler_latency_ticks =
      event_metrics_->Histogram("event.handler_latency_ticks");
  event_handles_.pipeline_occupancy = event_metrics_->Histogram(
      "event.pipeline_occupancy", {1, 2, 3, 4, 6, 8, 12, 16});
  event_handles_.timers_cancelled =
      event_metrics_->Counter("event.timers_cancelled");
}

RuntimeNetwork::LossyResult EventNetwork::RunCompatRound(
    const std::vector<double>& readings, const Transport& transport,
    const RetryPolicy& retry, const EnergyModel& energy, EventTrace* trace,
    int timestep) {
  LossyLinkModel links;
  links.attempt_delivers = [&transport, timestep](NodeId from, NodeId to,
                                                  int attempt) {
    return transport.AttemptDelivers(timestep, from, to, attempt);
  };
  links.node_alive = [&transport, timestep](NodeId node) {
    return transport.NodeAlive(timestep, node);
  };
  links.hop_effects = [&transport, timestep](NodeId from, NodeId to,
                                             int attempt) {
    return transport.EffectsFor(timestep, from, to, attempt);
  };
  links.max_delay_ticks = transport.max_delay_ticks();
  return fleet_->RunRoundLossy(readings, links, retry, energy, trace);
}

EventNetwork::PipelineResult EventNetwork::RunPipelined(
    const std::vector<std::vector<double>>& readings_per_timestep,
    const Transport& transport, const PipelineOptions& options) {
  RuntimeNetwork& fleet = *fleet_;
  const int node_count = fleet.node_count();
  const int timestep_count = static_cast<int>(readings_per_timestep.size());
  const RetryPolicy& retry = options.retry;
  M2M_CHECK_GE(options.timestep_interval_ticks, 1);
  M2M_CHECK_GE(retry.max_attempts, 1);
  M2M_CHECK_GE(retry.ack_timeout_ticks, 1);
  M2M_CHECK_GE(retry.backoff_factor, 1);
  M2M_CHECK_GE(retry.max_backoff_ticks, retry.ack_timeout_ticks);
  for (const std::vector<double>& readings : readings_per_timestep) {
    M2M_CHECK_EQ(readings.size(), static_cast<size_t>(node_count));
  }
  std::vector<VirtualClock> clocks(static_cast<size_t>(node_count));
  if (!options.clocks.empty()) {
    M2M_CHECK_EQ(options.clocks.size(), static_cast<size_t>(node_count));
    for (int n = 0; n < node_count; ++n) {
      clocks[static_cast<size_t>(n)] = VirtualClock(options.clocks[n]);
    }
  }

  PipelineResult result;
  result.timesteps.resize(static_cast<size_t>(timestep_count));

  struct PTransfer {
    NodeId sender = kInvalidNode;
    NodeRuntime::OutgoingPacket packet;
    uint32_t epoch = 0;
    int attempts_made = 0;
    bool delivered_once = false;
    bool acked = false;
    bool done = false;
    int pending_events = 0;
    int pending_retransmits = 0;
    EventId retransmit_timer;
  };
  struct PEvent {
    enum class Kind : uint8_t { kStart, kTransmit, kDeliver, kAckArrive };
    Kind kind = Kind::kTransmit;
    int timestep = 0;
    NodeId node = kInvalidNode;  ///< kStart only.
    size_t index = 0;
    int attempt = 0;
    bool retransmit = false;
    bool is_dup = false;
    bool corrupt = false;
    uint32_t corrupt_bit = 0;
    int64_t origin = 0;
  };
  // Every timestep runs on its own clones of the fleet's node runtimes, so
  // overlapping timesteps never share mutable round state; clones are
  // freed at retirement, keeping live memory proportional to the pipeline
  // depth rather than the sweep length.
  struct TimestepRun {
    std::vector<NodeRuntime> nodes;
    std::vector<EventNodeRuntime> handlers;
    std::vector<PTransfer> transfers;
    size_t done_count = 0;
    int started_count = 0;
    int alive_count = 0;
    /// Outstanding deliveries, acks and retransmit timers for this
    /// timestep; retirement requires zero (a late channel duplicate must
    /// still find its recipient's clone alive).
    int64_t pending_total = 0;
    bool live = false;
    bool retired = false;
  };
  std::vector<TimestepRun> runs(static_cast<size_t>(timestep_count));

  EventQueue<PEvent> queue;
  int in_flight = 0;

  for (int t = 0; t < timestep_count; ++t) {
    TimestepRun& run = runs[static_cast<size_t>(t)];
    run.nodes.reserve(static_cast<size_t>(node_count));
    for (NodeId n = 0; n < node_count; ++n) {
      run.nodes.push_back(fleet.node_runtime(n));
    }
    run.handlers.reserve(static_cast<size_t>(node_count));
    for (NodeId n = 0; n < node_count; ++n) {
      run.handlers.emplace_back(&run.nodes[static_cast<size_t>(n)],
                                clocks[static_cast<size_t>(n)]);
    }
    for (NodeId n = 0; n < node_count; ++n) {
      if (!transport.NodeAlive(t, n)) continue;
      run.alive_count += 1;
      // Node n starts timestep t when its *local* clock reads the release
      // time; drift scatters these onto different global ticks.
      const int64_t local_release =
          static_cast<int64_t>(t) * options.timestep_interval_ticks;
      const int64_t start_tick =
          clocks[static_cast<size_t>(n)].GlobalFor(local_release);
      PEvent event;
      event.kind = PEvent::Kind::kStart;
      event.timestep = t;
      event.node = n;
      event.origin = start_tick;
      queue.Schedule(start_tick, event);
    }
    if (run.alive_count == 0) {
      run.retired = true;
      run.nodes.clear();
      run.handlers.clear();
    }
  }

  auto maybe_retire = [&](int t, int64_t tick) {
    TimestepRun& run = runs[static_cast<size_t>(t)];
    if (run.retired) return;
    if (run.started_count < run.alive_count) return;
    if (run.done_count < run.transfers.size()) return;
    if (run.pending_total != 0) return;
    run.retired = true;
    PipelineResult::Timestep& stats = result.timesteps[static_cast<size_t>(t)];
    stats.retire_tick = tick;
    for (NodeId n = 0; n < node_count; ++n) {
      const NodeRuntime& node = run.nodes[static_cast<size_t>(n)];
      if (!node.is_destination() || !transport.NodeAlive(t, n)) continue;
      std::optional<double> value = node.FinalValue();
      if (value.has_value()) {
        stats.destination_values[n] = *value;
      } else {
        stats.incomplete_destinations.push_back(n);
      }
    }
    if (run.live) {
      run.live = false;
      in_flight -= 1;
      if (event_metrics_ != nullptr && in_flight > 0) {
        event_metrics_->Observe(event_handles_.pipeline_occupancy, in_flight);
      }
    }
    run.nodes.clear();
    run.handlers.clear();
    run.transfers.clear();
  };
  auto maybe_finalize = [&](int t, size_t index) {
    TimestepRun& run = runs[static_cast<size_t>(t)];
    PTransfer& tr = run.transfers[index];
    if (tr.done) return;
    if (tr.acked) {
      tr.done = true;
      run.done_count += 1;
    } else if (tr.attempts_made >= retry.max_attempts &&
               tr.pending_events == 0 && tr.pending_retransmits == 0) {
      tr.done = true;
      run.done_count += 1;
      if (!tr.delivered_once) {
        result.timesteps[static_cast<size_t>(t)].messages_abandoned += 1;
      }
    }
  };
  auto add_transfer = [&](int t, NodeId sender,
                          NodeRuntime::OutgoingPacket packet, int64_t tick,
                          int64_t launch_tick) {
    TimestepRun& run = runs[static_cast<size_t>(t)];
    PTransfer& transfer = run.transfers.emplace_back();
    transfer.sender = sender;
    transfer.packet = std::move(packet);
    transfer.epoch = run.nodes[static_cast<size_t>(sender)].plan_epoch();
    PEvent event;
    event.kind = PEvent::Kind::kTransmit;
    event.timestep = t;
    event.index = run.transfers.size() - 1;
    event.origin = tick;
    queue.Schedule(launch_tick, event);
  };

  auto handle_start = [&](const PEvent& e, int64_t tick) {
    TimestepRun& run = runs[static_cast<size_t>(e.timestep)];
    PipelineResult::Timestep& stats =
        result.timesteps[static_cast<size_t>(e.timestep)];
    if (!run.live) {
      run.live = true;
      in_flight += 1;
      result.max_in_flight = std::max(result.max_in_flight, in_flight);
      if (event_metrics_ != nullptr) {
        event_metrics_->Observe(event_handles_.pipeline_occupancy, in_flight);
      }
      if (stats.start_tick < 0) stats.start_tick = tick;
    }
    std::vector<NodeRuntime::OutgoingPacket> packets =
        run.handlers[static_cast<size_t>(e.node)].HandleTimestepStart(
            readings_per_timestep[static_cast<size_t>(e.timestep)]
                                 [static_cast<size_t>(e.node)]);
    run.started_count += 1;
    for (NodeRuntime::OutgoingPacket& packet : packets) {
      add_transfer(e.timestep, e.node, std::move(packet), tick, tick);
    }
    maybe_retire(e.timestep, tick);
  };

  auto handle_transmit = [&](const PEvent& e, int64_t tick) {
    const int t = e.timestep;
    TimestepRun& run = runs[static_cast<size_t>(t)];
    PipelineResult::Timestep& stats = result.timesteps[static_cast<size_t>(t)];
    if (e.retransmit) {
      PTransfer& tr = run.transfers[e.index];
      tr.pending_retransmits -= 1;
      run.pending_total -= 1;
      tr.retransmit_timer = EventId{};
      if (tr.acked || tr.done) {
        maybe_finalize(t, e.index);
        maybe_retire(t, tick);
        return;
      }
    }
    const NodeId sender = run.transfers[e.index].sender;
    const int message_id = run.transfers[e.index].packet.local_message_id;
    const NodeId recipient = run.transfers[e.index].packet.recipient;
    const std::vector<NodeId>& segment =
        fleet.node_message_segments(sender)[message_id];
    const int attempt = ++run.transfers[e.index].attempts_made;
    stats.attempts += 1;
    if (attempt > 1) stats.retransmissions += 1;

    bool delivered = transport.NodeAlive(t, recipient);
    int64_t path_latency = 0;
    int data_delay = 0;
    bool dup = false;
    bool corrupt = false;
    uint32_t corrupt_bit = 0;
    if (delivered) {
      for (size_t h = 0; h + 1 < segment.size(); ++h) {
        if (!transport.AttemptDelivers(t, segment[h], segment[h + 1],
                                       attempt)) {
          delivered = false;
          break;
        }
        path_latency += std::max<int64_t>(
            1, transport.HopLatencyTicks(segment[h], segment[h + 1]));
        HopEffects effects =
            transport.EffectsFor(t, segment[h], segment[h + 1], attempt);
        data_delay += effects.delay_ticks;
        if (effects.duplicate) dup = true;
        if (effects.corrupt && !corrupt) {
          corrupt = true;
          corrupt_bit = effects.corrupt_bit;
        }
      }
    }
    if (delivered) {
      data_delay = std::min(data_delay, transport.max_delay_ticks());
      const int64_t arrival = tick + path_latency + data_delay;
      run.transfers[e.index].pending_events += 1;
      run.pending_total += 1;
      PEvent deliver;
      deliver.kind = PEvent::Kind::kDeliver;
      deliver.timestep = t;
      deliver.index = e.index;
      deliver.attempt = attempt;
      deliver.corrupt = corrupt;
      deliver.corrupt_bit = corrupt_bit;
      deliver.origin = tick;
      queue.Schedule(arrival, deliver);
      if (dup) {
        run.transfers[e.index].pending_events += 1;
        run.pending_total += 1;
        PEvent spontaneous = deliver;
        spontaneous.is_dup = true;
        queue.Schedule(arrival + 1, spontaneous);
      }
    }
    PTransfer& tr = run.transfers[e.index];
    if (!tr.acked && !tr.done && attempt < retry.max_attempts) {
      tr.pending_retransmits += 1;
      run.pending_total += 1;
      PEvent rt;
      rt.kind = PEvent::Kind::kTransmit;
      rt.timestep = t;
      rt.index = e.index;
      rt.retransmit = true;
      rt.origin = tick;
      tr.retransmit_timer =
          queue.Schedule(tick + retry.BackoffWaitTicks(attempt), rt);
    }
    maybe_finalize(t, e.index);
    maybe_retire(t, tick);
  };

  auto handle_deliver = [&](const PEvent& e, int64_t tick) {
    const int t = e.timestep;
    TimestepRun& run = runs[static_cast<size_t>(t)];
    PipelineResult::Timestep& stats = result.timesteps[static_cast<size_t>(t)];
    run.transfers[e.index].pending_events -= 1;
    run.pending_total -= 1;
    const NodeId sender = run.transfers[e.index].sender;
    const int message_id = run.transfers[e.index].packet.local_message_id;
    const NodeId recipient = run.transfers[e.index].packet.recipient;
    const std::vector<NodeId>& segment =
        fleet.node_message_segments(sender)[message_id];

    if (e.corrupt) {
      std::vector<uint8_t> frame =
          wire::FrameWithCrc32(run.transfers[e.index].packet.payload);
      size_t bit = e.corrupt_bit % (frame.size() * 8);
      frame[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      if (!wire::TryOpenCrc32Frame(frame).has_value()) {
        stats.corrupt_frames += 1;
        maybe_finalize(t, e.index);
        maybe_retire(t, tick);
        return;
      }
    }
    stats.deliveries += 1;
    EventNodeRuntime::MessageResult received =
        run.handlers[static_cast<size_t>(recipient)].HandleMessage(
            sender, message_id, run.transfers[e.index].epoch,
            run.transfers[e.index].packet.payload, static_cast<int>(tick));
    if (received.buffered) {
      // The recipient's local clock has not released this timestep yet; the
      // link layer accepted the frame into the mailbox, so it acks below
      // and the sender stops retrying.
      stats.buffered_prestart += 1;
      run.transfers[e.index].delivered_once = true;
    } else {
      switch (received.outcome) {
        case NodeRuntime::ReceiveOutcome::kFresh:
          run.transfers[e.index].delivered_once = true;
          for (NodeRuntime::OutgoingPacket& packet : received.emitted) {
            add_transfer(t, recipient, std::move(packet), tick, tick + 1);
          }
          break;
        case NodeRuntime::ReceiveOutcome::kDuplicate:
          stats.duplicates += 1;
          break;
        case NodeRuntime::ReceiveOutcome::kEpochMismatch:
          run.transfers[e.index].delivered_once = true;
          break;
      }
    }
    bool ack_ok = true;
    int64_t ack_latency = 0;
    int ack_delay = 0;
    for (size_t h = segment.size() - 1; h > 0; --h) {
      if (!transport.AttemptDelivers(t, segment[h], segment[h - 1],
                                     e.attempt)) {
        ack_ok = false;
        break;
      }
      ack_latency += std::max<int64_t>(
          1, transport.HopLatencyTicks(segment[h], segment[h - 1]));
      ack_delay +=
          transport.EffectsFor(t, segment[h], segment[h - 1], e.attempt)
              .delay_ticks;
    }
    if (ack_ok) {
      ack_delay = std::min(ack_delay, transport.max_delay_ticks());
      run.transfers[e.index].pending_events += 1;
      run.pending_total += 1;
      PEvent ack;
      ack.kind = PEvent::Kind::kAckArrive;
      ack.timestep = t;
      ack.index = e.index;
      ack.attempt = e.attempt;
      ack.origin = tick;
      queue.Schedule(tick + ack_latency + ack_delay, ack);
    }
    maybe_finalize(t, e.index);
    maybe_retire(t, tick);
  };

  auto handle_ack = [&](const PEvent& e, int64_t tick) {
    const int t = e.timestep;
    TimestepRun& run = runs[static_cast<size_t>(t)];
    PTransfer& tr = run.transfers[e.index];
    tr.pending_events -= 1;
    run.pending_total -= 1;
    if (!tr.acked) {
      tr.acked = true;
      // Exact timer cancellation: the pending retransmission will now
      // never fire (and its heap entry is reclaimed), instead of firing as
      // a skipped no-op the way the round-compat path models it.
      if (tr.retransmit_timer.valid() &&
          queue.Cancel(tr.retransmit_timer)) {
        tr.pending_retransmits -= 1;
        run.pending_total -= 1;
        result.retransmit_timers_cancelled += 1;
        if (event_metrics_ != nullptr) {
          event_metrics_->Add(event_handles_.timers_cancelled, 1);
        }
      }
      tr.retransmit_timer = EventId{};
    }
    maybe_finalize(t, e.index);
    maybe_retire(t, tick);
  };

  while (!queue.empty()) {
    std::optional<EventQueue<PEvent>::Fired> fired = queue.Pop();
    if (!fired.has_value()) break;
    const int64_t tick = fired->time;
    result.final_tick = tick;
    result.events_processed += 1;
    if (event_metrics_ != nullptr) {
      event_metrics_->Add(event_handles_.events_processed, 1);
      event_metrics_->Observe(event_handles_.queue_depth,
                              static_cast<int64_t>(queue.size()));
      event_metrics_->Observe(event_handles_.handler_latency_ticks,
                              tick - fired->payload.origin);
    }
    switch (fired->payload.kind) {
      case PEvent::Kind::kStart:
        handle_start(fired->payload, tick);
        break;
      case PEvent::Kind::kTransmit:
        handle_transmit(fired->payload, tick);
        break;
      case PEvent::Kind::kDeliver:
        handle_deliver(fired->payload, tick);
        break;
      case PEvent::Kind::kAckArrive:
        handle_ack(fired->payload, tick);
        break;
    }
  }
  return result;
}

}  // namespace m2m::event
