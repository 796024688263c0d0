#ifndef M2M_EVENT_EVENT_RUNTIME_H_
#define M2M_EVENT_EVENT_RUNTIME_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "event/clock.h"
#include "event/event_queue.h"
#include "event/transport.h"
#include "obs/metrics.h"
#include "runtime/network.h"
#include "runtime/node_runtime.h"
#include "sim/energy_model.h"

namespace m2m::event {

/// One compiled node program re-expressed as event handlers (the
/// Yggdrasil-style decomposition: the dispatcher owns time, the node owns
/// reactions). The underlying NodeRuntime is exactly the table-driven state
/// machine the round runtime executes — this wrapper adds the two things an
/// asynchronous schedule needs and a lockstep round never did:
///
///   - a per-node VirtualClock, so "start timestep t" is a *local*-time
///     timer that the engine converts onto the global event line, and
///   - a pre-start mailbox: under drift a fast neighbor's packet can arrive
///     before this node has started the timestep; the handler buffers it
///     and replays the mailbox in arrival order right after the local
///     round start (NodeRuntime rejects receives outside an active round).
class EventNodeRuntime {
 public:
  /// `node` is borrowed and must outlive the wrapper.
  explicit EventNodeRuntime(NodeRuntime* node,
                            VirtualClock clock = VirtualClock{});

  NodeRuntime& node() { return *node_; }
  const NodeRuntime& node() const { return *node_; }
  const VirtualClock& clock() const { return clock_; }
  bool started() const { return started_; }
  size_t buffered_count() const { return buffer_.size(); }

  /// Timer handler for the local timestep-start event: starts the round
  /// with this node's reading, replays buffered pre-start arrivals in
  /// arrival order, and returns every packet that became ready.
  std::vector<NodeRuntime::OutgoingPacket> HandleTimestepStart(
      double reading);

  struct MessageResult {
    /// Receive outcome; meaningful only when `buffered` is false.
    NodeRuntime::ReceiveOutcome outcome =
        NodeRuntime::ReceiveOutcome::kDuplicate;
    /// True when the node had not started the timestep yet: the payload
    /// went to the mailbox and `outcome`/`emitted` are empty.
    bool buffered = false;
    /// Packets that became ready from a fresh receive.
    std::vector<NodeRuntime::OutgoingPacket> emitted;
  };

  /// Message-delivery handler: duplicate-suppressing, epoch-gated receive
  /// (or mailbox buffering before the local round start).
  MessageResult HandleMessage(NodeId sender, int message_id, uint32_t epoch,
                              const std::vector<uint8_t>& payload, int tick);

 private:
  struct BufferedMessage {
    NodeId sender = kInvalidNode;
    int message_id = -1;
    uint32_t epoch = 0;
    std::vector<uint8_t> payload;
    int tick = 0;
  };

  NodeRuntime* node_;
  VirtualClock clock_;
  bool started_ = false;
  std::vector<BufferedMessage> buffer_;
};

/// Event-driven execution engine over a RuntimeNetwork fleet: a
/// deterministic discrete-event dispatcher (EventQueue) driving
/// EventNodeRuntime handlers through a pluggable Transport, instead of the
/// global round barrier.
///
/// Two execution modes:
///
///   - `RunCompatRound`: the round-compatibility mode. It *is*
///     `RuntimeNetwork::RunRoundLossy` over a transport adapter: the
///     transport's per-timestep decisions are bound into a LossyLinkModel
///     and the fleet runs its own lossy round (whose tick agenda is this
///     module's EventQueue). Same traces, same `runtime.*` metrics, same
///     aggregate bits by construction; tests/event_test.cc pins the output
///     with golden digests over 20 seeds and four channel regimes.
///
///   - `RunPipelined`: genuinely asynchronous execution the round model
///     cannot express. Per-node virtual clocks release timestep starts on
///     each node's *local* schedule, per-hop latency puts deliveries on
///     the global event line, and multiple timesteps overlap in flight
///     (block-computation pipelining); retirement is per-timestep
///     quiescence. Retransmit timers are cancelled exactly when the ack
///     lands — the event queue's Cancel in anger.
///
/// The engine borrows the fleet: images, epochs and (in compat mode) round
/// state are shared with the round-based runtime, so the two models can be
/// interleaved over one deployment.
class EventNetwork {
 public:
  explicit EventNetwork(RuntimeNetwork& fleet);

  /// Registers the event-engine instrumentation of RunPipelined
  /// (`event.*`): queue depth, handler scheduling-latency histogram,
  /// pipeline occupancy, processed event and cancelled timer counters.
  /// Observational only: attaching it changes no pipelined output. Pass
  /// nullptr to detach.
  void set_event_metrics(obs::MetricsRegistry* metrics);

  /// Runs one timestep in round-compatibility mode over `transport`:
  /// `RuntimeNetwork::RunRoundLossy` with `AttemptDelivers`, `NodeAlive`,
  /// `EffectsFor` and `max_delay_ticks` bound at `timestep` (a
  /// RoundCompatTransport ignores it — its LossyLinkModel is already bound
  /// to a round). `HopLatencyTicks` is not consulted: a whole attempt
  /// completes within its tick, the round model's slot semantics. Metrics
  /// go to the fleet's own registry (RuntimeNetwork::set_metrics).
  RuntimeNetwork::LossyResult RunCompatRound(
      const std::vector<double>& readings, const Transport& transport,
      const RetryPolicy& retry = {}, const EnergyModel& energy = {},
      EventTrace* trace = nullptr, int timestep = 0);

  struct PipelineOptions {
    /// Local-clock ticks between successive timestep releases: node n
    /// starts timestep t when its local clock reads t * interval. Smaller
    /// intervals (relative to per-timestep completion time) deepen the
    /// pipeline.
    int64_t timestep_interval_ticks = 8;
    /// Per-node clock specs (size node_count); empty = identity clocks.
    std::vector<ClockSpec> clocks;
    RetryPolicy retry;
  };

  struct PipelineResult {
    struct Timestep {
      std::unordered_map<NodeId, double> destination_values;
      std::vector<NodeId> incomplete_destinations;
      int64_t attempts = 0;
      int64_t deliveries = 0;
      int64_t retransmissions = 0;
      int64_t duplicates = 0;  ///< Dedup-suppressed deliveries.
      int64_t messages_abandoned = 0;
      int64_t corrupt_frames = 0;
      /// Deliveries that arrived before the recipient's local round start
      /// and were mailbox-buffered (nonzero only when drift makes a sender
      /// run ahead of its receiver; the pipelining evidence).
      int64_t buffered_prestart = 0;
      int64_t start_tick = -1;   ///< Global tick of the first node start.
      int64_t retire_tick = -1;  ///< Global tick of quiescence.
    };
    std::vector<Timestep> timesteps;
    /// Peak number of timesteps simultaneously live (started, not yet
    /// retired) — >= 2 demonstrates pipelined execution.
    int max_in_flight = 0;
    int64_t final_tick = 0;
    uint64_t events_processed = 0;
    uint64_t retransmit_timers_cancelled = 0;
  };

  /// Runs `readings_per_timestep.size()` timesteps asynchronously over
  /// `transport`. Each timestep executes on its own clones of the fleet's
  /// node runtimes (retired and freed at quiescence), so overlapping
  /// timesteps never share mutable per-round state; the fleet itself is
  /// not mutated.
  PipelineResult RunPipelined(
      const std::vector<std::vector<double>>& readings_per_timestep,
      const Transport& transport, const PipelineOptions& options);

 private:
  struct EventMetricHandles {
    obs::MetricHandle events_processed;
    obs::MetricHandle queue_depth;
    obs::MetricHandle handler_latency_ticks;
    obs::MetricHandle pipeline_occupancy;
    obs::MetricHandle timers_cancelled;
  };

  RuntimeNetwork* fleet_;
  obs::MetricsRegistry* event_metrics_ = nullptr;
  EventMetricHandles event_handles_;
};

}  // namespace m2m::event

#endif  // M2M_EVENT_EVENT_RUNTIME_H_
