#ifndef M2M_RUNTIME_NETWORK_H_
#define M2M_RUNTIME_NETWORK_H_

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "agg/aggregate_function.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/node_tables.h"
#include "runtime/node_runtime.h"
#include "sim/energy_model.h"

namespace m2m {

/// Bounded-retransmission policy for lossy rounds: a sender retries an
/// unacked message up to `max_attempts` total attempts, waiting
/// `ack_timeout_ticks * backoff_factor^(attempt-1)` ticks between attempts
/// (per-edge exponential backoff), clamped to `max_backoff_ticks`.
struct RetryPolicy {
  int max_attempts = 4;
  int ack_timeout_ticks = 2;
  int backoff_factor = 2;
  /// Upper clamp on one backoff wait. Without the clamp, the exponential
  /// overflows `int` around attempt 33 (e.g. max_attempts = 40), turning
  /// timeouts negative and scheduling retransmissions in the past.
  int64_t max_backoff_ticks = int64_t{1} << 16;

  /// Ticks a sender waits after unacked attempt `attempt` (1-based) before
  /// retransmitting. Computed in int64 and clamped, so it is positive and
  /// monotone non-decreasing for every `max_attempts`.
  int64_t BackoffWaitTicks(int attempt) const;

  /// Latest lag (in ticks) between a receiver first seeing a message and
  /// the sender's final possible retransmission arriving, plus one: the
  /// sum of all backoff waits. A dedup entry older than this can never see
  /// another duplicate, so it is safe to evict — this single derivation is
  /// what both the retransmission scheduler and the receiver dedup
  /// eviction use, keeping the two sides of the boundary consistent.
  int64_t RetryHorizonTicks() const;
};

/// Append-only log of runtime events, backed by the structured
/// obs::RoundTrace: the runtime appends typed records (send/recv/ack/drop/
/// giveup/suspect/control/replan), and `ToString()` renders them to the
/// exact byte-identical text the legacy string trace produced. Replaying
/// the same fault schedule must reproduce this byte for byte — the
/// determinism contract the differential fault tests assert.
///
/// `set_capacity(n)` (inherited) bounds memory to a ring of the most
/// recent n records for multi-thousand-round runs; the default is the
/// legacy unbounded mode.
struct EventTrace : obs::RoundTrace {
  using obs::RoundTrace::Append;
  /// Legacy free-form append (schedule descriptions, round summaries).
  void Append(std::string line) { Text(std::move(line)); }
};

/// Channel-induced side effects on one hop crossing beyond plain delivery
/// (all decided per directed link and attempt, like `attempt_delivers`).
struct HopEffects {
  /// Extra ticks the packet (or ack) spends on this hop before arriving.
  int delay_ticks = 0;
  /// Spontaneous duplication: the hop delivers a second copy.
  bool duplicate = false;
  /// Payload bit-corruption in transit. The receiver's CRC32 frame check
  /// rejects the packet (counted, never decoded) and no ack is sent.
  bool corrupt = false;
  /// Which bit to flip when `corrupt` (taken modulo the frame size).
  uint32_t corrupt_bit = 0;
};

/// Link-layer behavior for one lossy round. `attempt_delivers` decides each
/// one-hop transmission attempt (1-based attempt index, directed link); it
/// must be a pure function for reproducibility. A null `node_alive` means
/// every node is alive; a null `hop_effects` means a clean channel (no
/// delay, duplication, or corruption).
struct LossyLinkModel {
  std::function<bool(NodeId from, NodeId to, int attempt)> attempt_delivers;
  std::function<bool(NodeId node)> node_alive;
  /// Adversarial channel effects, also a pure function. Effects apply per
  /// hop; delays accumulate along a multi-hop segment but the *total*
  /// added delay of any one attempt (data or ack direction) is clamped to
  /// `max_delay_ticks`.
  std::function<HopEffects(NodeId from, NodeId to, int attempt)> hop_effects;
  /// Upper bound on the accumulated extra delay of one attempt. Must cover
  /// anything `hop_effects` returns: the receiver dedup-eviction horizon is
  /// extended by exactly this much, which is what keeps late duplicates of
  /// evicted entries impossible (see RetryPolicy::RetryHorizonTicks).
  int max_delay_ticks = 0;
};

/// Sorts directed hops (from, to) and drops duplicates, giving exactly what
/// std::sort + std::unique give, in linear time: each hop packs into one
/// key of 2 * ceil(log2 node_count) bits, and an LSD radix sort on 11-bit
/// digits orders the keys (3 passes at 10k nodes). CHECK-fails unless
/// every id is in [0, node_count). LossyResult::heard is built with it.
void SortUniqueHops(std::vector<std::pair<NodeId, NodeId>>& hops,
                    int node_count);

/// Drives a fleet of NodeRuntimes through one round: installs the wire
/// images a compiled plan serializes to, injects readings, and shuttles the
/// encoded packets between nodes until the network quiesces. The energy and
/// byte accounting uses the *actual encoded packet sizes* (varints, tags,
/// float fields), making this the byte-accurate counterpart of the analytic
/// executor.
class RuntimeNetwork {
 public:
  /// Installs `images`, the wire images of every node of `compiled` indexed
  /// by node id (EncodeAllNodeStates); `compiled` supplies the physical
  /// segment of each outgoing message.
  RuntimeNetwork(const CompiledPlan& compiled,
                 const std::vector<std::vector<uint8_t>>& images);
  /// Encodes every node of `compiled` under `functions` and installs it.
  RuntimeNetwork(const CompiledPlan& compiled, const FunctionSet& functions);

  RuntimeNetwork(const RuntimeNetwork&) = default;
  RuntimeNetwork& operator=(const RuntimeNetwork&) = default;
  RuntimeNetwork(RuntimeNetwork&&) noexcept = default;
  RuntimeNetwork& operator=(RuntimeNetwork&&) noexcept = default;

  /// Outcome of one round over lossy links with ack/retry recovery.
  struct LossyResult {
    /// Destinations whose aggregate completed (alive destinations only).
    std::unordered_map<NodeId, double> destination_values;
    /// Plan epoch each completed value was computed under. The epoch gate
    /// makes every value attributable to exactly one epoch even when the
    /// round ran with nodes on mixed plan generations.
    std::unordered_map<NodeId, uint32_t> destination_epochs;
    /// Alive destinations that never completed (some contribution was lost
    /// after all retries).
    std::vector<NodeId> incomplete_destinations;
    int64_t attempts = 0;         ///< Data transmission attempts.
    int64_t deliveries = 0;       ///< Delivered data packets (incl. dups).
    int64_t duplicates = 0;       ///< Deliveries suppressed as retransmits.
    int64_t retransmissions = 0;  ///< Attempts beyond each message's first.
    int64_t acks_lost = 0;        ///< Delivered packets whose ack dropped.
    int64_t messages_abandoned = 0;  ///< Never delivered within the budget.
    /// Delivered packets dropped whole by the receiver's epoch gate (the
    /// sender ran a different plan generation; acked so retries stop).
    int64_t epoch_rejected = 0;
    int64_t payload_bytes = 0;       ///< Payload bytes of delivered copies.
    /// Receiver dedup entries evicted past the retry horizon this round
    /// (the eviction agenda's work count; round-start clears not counted).
    int64_t dedup_evictions = 0;
    double energy_mj = 0.0;
    int final_tick = 0;
    /// Directed physical hops (from, to) over which `to` heard at least one
    /// transmission this round (data hops, ack hops, final deliveries),
    /// sorted and duplicate-free. This is the piggybacked-heartbeat
    /// evidence the failure detector consumes (by binary search): a
    /// neighbor heard this round is certainly alive.
    std::vector<std::pair<NodeId, NodeId>> heard;

    // --- Adversarial-channel accounting ---
    /// Frames whose CRC32 check failed at the receiver (bit-corruption in
    /// transit). Rejected before any decoding; the sender retries.
    int64_t corrupt_frames = 0;
    /// Channel-duplicated deliveries (spontaneous copies, not retries).
    int64_t spontaneous_duplicates = 0;
    /// Arrivals that overtook a later attempt of the same message (delayed
    /// copy landing after a newer one already arrived).
    int64_t reordered_deliveries = 0;

    // --- Coverage accounting ---
    /// Per-destination verdict on which sources this round's aggregate
    /// actually accounts for (suppression-unaware: the raw runtime counts
    /// only contributions that arrived; the executor layers suppression
    /// semantics on top).
    struct DestinationCoverage {
      int covered = 0;   ///< Distinct sources the merged record accounts for.
      int expected = 0;  ///< Sources the installed plan routes to this
                         ///< destination (union over alive same-epoch
                         ///< pre-aggregation sites).
      double coverage = 1.0;  ///< covered / max(expected, 1), in [0, 1].
      bool complete = false;  ///< covered == expected (no loss visible).
      bool exact_known = true;  ///< `sources` lists the exact set.
      uint32_t xor_fold = 0;    ///< XOR of (source id + 1) fingerprint.
      std::vector<NodeId> sources;
    };
    /// Keyed by alive destination (complete and incomplete alike).
    std::unordered_map<NodeId, DestinationCoverage> destination_coverage;
    /// Best-effort evaluation for incomplete destinations: the value of the
    /// partially merged record (what a degraded readout would report).
    /// Absent when nothing contributed.
    std::unordered_map<NodeId, double> degraded_values;

    // --- Battery accounting ---
    /// Per-node radio energy (mJ), indexed by node id — populated only when
    /// `set_track_node_energy(true)` was called, else empty. Attribution:
    /// each crossed data hop pays TX at its transmitter and RX at its
    /// receiver; a failed or dead-recipient transmit burns TX at the
    /// stalling node; ack hops pay header-only TX/RX the same way. The sum
    /// over nodes equals `energy_mj` up to floating-point grouping (the
    /// total keeps its legacy term order untouched — byte-identity).
    std::vector<double> node_energy_mj;
  };

  /// Runs one round under `links` with stop-and-wait ack/retry per message
  /// (paper section 3 failure handling: transient losses are absorbed by
  /// the communication layer; only persistent changes require re-planning).
  /// Time advances in ticks: a transmission takes one tick, an unacked
  /// message retransmits after the policy's backoff. Dead nodes neither
  /// start the round nor receive; a dead participant's leftover dedup table
  /// is cleared at round start. Incomplete destinations are reported, not
  /// CHECK-failed. Every event is appended to `trace` when non-null.
  /// The round's work follows the traffic, not N: round start and the
  /// end-of-round passes walk the participant list, events run in
  /// (tick, seq) order, and dedup eviction pops a FIFO of receive stamps
  /// (docs/THEORY.md §7). Bookkeeping is O(1) per event with no allocation per
  /// packet: the agenda is a ring of one-tick buckets (TickAgenda,
  /// docs/THEORY.md §16), every packet's payload is appended to one byte
  /// arena for the round, and `heard` is ordered by SortUniqueHops.
  LossyResult RunRoundLossy(const std::vector<double>& readings,
                            const LossyLinkModel& links,
                            const RetryPolicy& retry = {},
                            const EnergyModel& energy = {},
                            EventTrace* trace = nullptr);

  /// Runs one lossless round: RunRoundLossy over a perfect link model
  /// (every attempt delivers, every node is alive). Each message crosses
  /// its segment once and pays one header-only ack per crossed hop
  /// (docs/THEORY.md §7). CHECK-fails if any destination fails to
  /// complete.
  LossyResult RunRound(const std::vector<double>& readings,
                       const EnergyModel& energy = {});

  /// Attaches a metrics registry: subsequent rounds record per-node and
  /// per-edge counters (tx/rx packets and bytes, retries, backoff waits,
  /// acks, dedup hits, epoch-gate drops) plus per-round histograms.
  /// Pass nullptr to detach. The registry must outlive the network.
  void set_metrics(obs::MetricsRegistry* metrics);
  obs::MetricsRegistry* metrics() const { return metrics_; }

  /// Enables per-node energy attribution in RunRoundLossy results (the
  /// battery ledger's input). Off (default) leaves
  /// LossyResult::node_energy_mj empty and the round byte-identical to the
  /// legacy path: the per-node terms are recorded alongside the existing
  /// total-energy terms, never replacing them.
  void set_track_node_energy(bool track) { track_node_energy_ = track; }
  bool track_node_energy() const { return track_node_energy_; }

  /// Total bytes of all installed node images (the dissemination payload).
  int64_t installed_image_bytes() const { return installed_image_bytes_; }

  /// Installs a new plan image at one node mid-deployment (epoch
  /// transition). `compiled` is the plan the image was encoded from: the
  /// node's outgoing segments in it are the physical routes of its
  /// messages, indexed by node-local message id — the communication-layer
  /// half of the state the image's tables reference. Idempotent for the
  /// already-installed epoch. Returns false (and leaves the node untouched)
  /// when the image's epoch is older than the node's current one: higher
  /// epoch wins when plan lineages reconcile.
  bool InstallNodeImage(NodeId node, const std::vector<uint8_t>& image,
                        const CompiledPlan& compiled);

  /// Plan epoch currently installed at `node`.
  uint32_t plan_epoch(NodeId node) const;

  const NodeRuntime& node_runtime(NodeId node) const;

  int node_count() const { return static_cast<int>(nodes_.size()); }

  /// Ids of the nodes holding at least one table entry, ascending: the
  /// only nodes a round starts, sends from or delivers to.
  const std::vector<NodeId>& participants() const { return participants_; }

 private:
  /// Pre-resolved metric handles, registered once in set_metrics so the
  /// per-packet hot path is handle-indexed adds only.
  struct MetricHandles {
    obs::MetricHandle tx_attempts;
    obs::MetricHandle tx_bytes;
    obs::MetricHandle rx_packets;
    obs::MetricHandle rx_bytes;
    obs::MetricHandle hop_transmissions;
    obs::MetricHandle retransmissions;
    obs::MetricHandle backoff_wait_ticks;
    obs::MetricHandle acks_delivered;
    obs::MetricHandle acks_lost;
    obs::MetricHandle dedup_hits;
    obs::MetricHandle epoch_gate_drops;
    obs::MetricHandle messages_abandoned;
    obs::MetricHandle attempts_per_message;
    obs::MetricHandle round_ticks;
    obs::MetricHandle installs;
    obs::MetricHandle install_bytes;
    obs::MetricHandle chan_corrupt_frames;
    obs::MetricHandle chan_duplicated;
    obs::MetricHandle chan_reordered;
    obs::MetricHandle coverage_per_destination;
    obs::MetricHandle coverage_degraded_rounds;
  };

  /// Keeps participants_ in step with `node`'s installed tables.
  void UpdateParticipation(NodeId node);
  /// Sets `node`'s message segments to its outgoing segments in `compiled`.
  void AssignSegments(NodeId node, const CompiledPlan& compiled);

  std::vector<NodeRuntime> nodes_;
  /// Nodes with entry_count() > 0, sorted (see participants()).
  std::vector<NodeId> participants_;
  /// Physical segment (tail..head inclusive) per (node, local message id).
  std::vector<std::vector<std::vector<NodeId>>> message_segments_;
  int64_t installed_image_bytes_ = 0;
  bool track_node_energy_ = false;
  obs::MetricsRegistry* metrics_ = nullptr;
  MetricHandles handles_;
};

}  // namespace m2m

#endif  // M2M_RUNTIME_NETWORK_H_
