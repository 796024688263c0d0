#ifndef M2M_RUNTIME_CHANNEL_H_
#define M2M_RUNTIME_CHANNEL_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/ids.h"
#include "obs/metrics.h"
#include "runtime/network.h"

namespace m2m {

/// Knobs of the adversarial channel. All probabilities are in [0, 1].
///
/// Loss follows a Gilbert–Elliott two-state chain per directed link: the
/// link is either in a *good* state (loss = good_loss) or a *bad* burst
/// state (loss = bad_loss), with per-attempt transition probabilities
/// p_enter_bad / p_exit_bad. p_enter_bad = 0 collapses the model to
/// independent Bernoulli loss at good_loss, the legacy regime.
struct ChannelOptions {
  double good_loss = 0.0;      ///< Loss probability in the good state.
  double bad_loss = 0.9;       ///< Loss probability inside a burst.
  double p_enter_bad = 0.0;    ///< Good -> bad transition per attempt.
  double p_exit_bad = 0.25;    ///< Bad -> good transition per attempt.
  /// Extra loss applied only to "reverse" hops (from > to). Models
  /// asymmetric links where the uplink is cleaner than the downlink.
  double reverse_extra_loss = 0.0;
  /// Probability that a crossed hop spawns a spontaneous duplicate copy.
  double duplicate_probability = 0.0;
  /// Probability that a crossed hop flips one payload bit in transit.
  double corrupt_probability = 0.0;
  /// Probability that a crossed hop adds queueing delay (1..max_delay).
  double delay_probability = 0.0;
  /// Per-attempt, per-direction cap on accumulated channel delay, in
  /// ticks. 0 disables delay entirely (and keeps dedup eviction at the
  /// clean-channel horizon).
  int max_delay_ticks = 0;
  uint64_t seed = 1;
};

/// Deterministic adversarial channel. Every per-(round, link, attempt)
/// decision is a pure hash of (seed, round, from, to, attempt) — no mutable
/// RNG state — so a replay of the same seed over the same schedule is
/// byte-identical, and delivery queries commute with any evaluation order
/// the runtime chooses (delayed acks, reordered retransmissions, ...).
///
/// `PhysicalLayer::Bind` (sim/physical_layer.h) composes it into the
/// LossyLinkModel the runtime consumes.
class ChannelModel {
 public:
  explicit ChannelModel(const ChannelOptions& options);

  /// True iff the directed hop (from -> to) delivers on this attempt.
  bool AttemptDelivers(int round, NodeId from, NodeId to, int attempt) const;

  /// Side effects (delay/duplication/corruption) for a crossed hop.
  HopEffects EffectsFor(int round, NodeId from, NodeId to,
                        int attempt) const;

  /// True iff the Gilbert–Elliott chain is in the burst state for this
  /// attempt on this directed link.
  bool InBurst(int round, NodeId from, NodeId to, int attempt) const;

  /// True iff a crossed hop can be delayed, duplicated or corrupted.
  bool has_effects() const;

  /// Registers `chan.burst_transitions` (good -> bad entries observed by
  /// delivery queries). Counting is observational only — it never feeds
  /// back into channel decisions, so metrics on/off cannot change a run.
  void set_metrics(obs::MetricsRegistry* metrics);

  const ChannelOptions& options() const { return options_; }

 private:
  /// Decision salts. Each per-(round, link, attempt) draw uses its own salt
  /// so the loss, duplication, corruption and delay coins are independent.
  /// Salt i is 0xb1a5'0001 + i.
  enum Salt : size_t {
    kSaltBurstInit,
    kSaltBurstStep,
    kSaltLoss,
    kSaltDuplicate,
    kSaltCorrupt,
    kSaltDelay,
    kSaltCount,
  };

  /// The per-(round, link, attempt) hash of one decision salt.
  uint64_t Draw(Salt salt, int round, NodeId from, NodeId to,
                int attempt) const;

  ChannelOptions options_;
  /// Stationary share of the burst state (0 without bursts).
  double p_bad_ = 0.0;
  /// Loss probability by direction (0 forward, 1 reverse: from > to) and
  /// state (0 good, 1 burst), reverse_extra_loss included.
  std::array<std::array<double, 2>, 2> loss_{};
  /// SplitMix64(seed ^ SplitMix64(salt)) for each decision salt: the part
  /// of every decision hash that depends on neither link nor attempt.
  std::array<uint64_t, kSaltCount> salted_seeds_{};
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::MetricHandle burst_transitions_{};
};

}  // namespace m2m

#endif  // M2M_RUNTIME_CHANNEL_H_
